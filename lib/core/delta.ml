module Vs = Xc_vsumm.Value_summary
module B = Synopsis.Builder

(* Scratch for the child-edge gather below, owned by the caller
   ([Pool] makes one per scoring batch and reuses it for every
   evaluation in it). Flat parallel arrays with linear search — the
   merged child set is small (a handful of distinct labels), so a
   linear probe beats hashing and allocates nothing; accumulation
   iterates in insertion order, which depends only on the builder's
   edge tables, never on a hash layout. *)
type scratch = {
  mutable sids : int array;
  mutable fa : float array;
  mutable fb : float array;
  mutable len : int;
}

let scratch () =
  { sids = Array.make 64 0; fa = Array.make 64 0.0; fb = Array.make 64 0.0; len = 0 }

let scratch_slot sc sid =
  let n = sc.len in
  let sids = sc.sids in
  let rec find i = if i >= n then -1 else if Array.unsafe_get sids i = sid then i else find (i + 1) in
  let i = find 0 in
  if i >= 0 then i
  else begin
    if n = Array.length sc.sids then begin
      let grow a zero =
        let a' = Array.make (2 * n) zero in
        Array.blit a 0 a' 0 n;
        a'
      in
      sc.sids <- grow sc.sids 0;
      sc.fa <- grow sc.fa 0.0;
      sc.fb <- grow sc.fb 0.0
    end;
    sc.sids.(n) <- sid;
    sc.fa.(n) <- 0.0;
    sc.fb.(n) <- 0.0;
    sc.len <- n + 1;
    n
  end

(* Gathers A and B keyed by the merged child identity into [sc] (the
   merged self-loop child under sid -1) and returns the merged node's
   distinct child count: the non-u/v children plus the self loop. Both
   Δ and [Merge.saved_bytes] read this one gather. *)
let merged_children sc syn u v =
  let is_uv sid = sid = B.sid u || sid = B.sid v in
  sc.len <- 0;
  let self = ref false in
  let gather node side =
    let self_acc = ref 0.0 in
    B.succ syn node (fun sid avg ->
        if is_uv sid then begin
          self := true;
          self_acc := !self_acc +. avg
        end
        else begin
          let i = scratch_slot sc sid in
          if side = `U then sc.fa.(i) <- sc.fa.(i) +. avg
          else sc.fb.(i) <- sc.fb.(i) +. avg
        end);
    !self_acc
  in
  let self_u = gather u `U and self_v = gather v `V in
  let merged_children = sc.len + if !self then 1 else 0 in
  if self_u > 0.0 || self_v > 0.0 then begin
    let i = scratch_slot sc (-1) in
    sc.fa.(i) <- sc.fa.(i) +. self_u;
    sc.fb.(i) <- sc.fb.(i) +. self_v
  end;
  merged_children

(* Structural dot products over the union of child edges of u and v,
   including the implicit self query (A=1, B=1, W=1 component).
   A_c = count(u,c), B_c = count(v,c), W_c = (|u|A_c + |v|B_c)/|w|,
   with child references to u or v remapped onto w. *)
let structural_dots sc syn u v =
  let cu = float_of_int (B.count u) and cv = float_of_int (B.count v) in
  let cw = cu +. cv in
  let merged_children = merged_children sc syn u v in
  let saa = ref 1.0 and saw = ref 1.0 and sbb = ref 1.0 and sbw = ref 1.0
  and sww = ref 1.0 in
  (* the initial 1.0 is the implicit self query with A = B = W = 1 *)
  for i = 0 to sc.len - 1 do
    let a = Array.unsafe_get sc.fa i and b = Array.unsafe_get sc.fb i in
    let w = ((cu *. a) +. (cv *. b)) /. cw in
    saa := !saa +. (a *. a);
    saw := !saw +. (a *. w);
    sbb := !sbb +. (b *. b);
    sbw := !sbw +. (b *. w);
    sww := !sww +. (w *. w)
  done;
  (!saa, !saw, !sbb, !sbw, !sww, merged_children)

let merge_delta_counted ?(structural_only = false) sc syn u v =
  let cu = float_of_int (B.count u) and cv = float_of_int (B.count v) in
  let cw = cu +. cv in
  let wu = cu /. cw and wv = cv /. cw in
  let saa, saw, sbb, sbw, sww, merged_children = structural_dots sc syn u v in
  let puu, pvv, puv =
    if structural_only then (1.0, 1.0, 1.0)
    else Vs.pred_dots (B.vsumm u) (B.vsumm v)
  in
  (* predicate-space dots against σ_w = wu·σ_u + wv·σ_v *)
  let puw = (wu *. puu) +. (wv *. puv) in
  let pvw = (wu *. puv) +. (wv *. pvv) in
  let pww = (wu *. wu *. puu) +. (2.0 *. wu *. wv *. puv) +. (wv *. wv *. pvv) in
  let du = (puu *. saa) -. (2.0 *. puw *. saw) +. (pww *. sww) in
  let dv = (pvv *. sbb) -. (2.0 *. pvw *. sbw) +. (pww *. sww) in
  (* numerical noise can push the quadratic forms slightly negative *)
  (Float.max 0.0 ((cu *. du) +. (cv *. dv)), merged_children)

let compression_step syn u =
  match Vs.compress_step (B.vsumm u) with
  | None -> None
  | Some step ->
    let struct_factor = ref 1.0 in
    B.succ syn u (fun _ avg -> struct_factor := !struct_factor +. (avg *. avg));
    let delta = float_of_int (B.count u) *. !struct_factor *. step.Vs.err in
    Some (delta, step)

let marginal_loss delta saved = delta /. float_of_int (max 1 saved)
