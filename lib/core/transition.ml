module S = Synopsis.Sealed

type t = {
  tm_expr : Xc_twig.Path_expr.t;
  tm_off : S.ba_i;  (* n_rows + 1 *)
  tm_idx : S.ba_i;  (* target indices, ascending within a row *)
  tm_w : S.ba_f;
}

(* Row u is reach_dist syn expr u, computed with the serving baseline's
   own step function: a child step is a sparse composition with the
   sealed child CSR (expand over the row's support, then label-filter),
   a descendant step the height-bounded closure. Building through
   Estimate.step_reach is what makes every stored float bit-identical
   to an uncached frontier walk — same operations, same order. *)
let build syn expr =
  let n = S.n_nodes syn in
  let rows =
    Array.init n (fun u ->
        List.fold_left
          (fun d step -> Estimate.step_reach syn step d)
          { Estimate.d_idx = [| u |]; Estimate.d_w = [| 1.0 |] }
          expr)
  in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Array.length rows.(u).Estimate.d_idx
  done;
  let nnz = off.(n) in
  (* pack the rows into unboxed buffers: the batch dot kernel streams
     a row as one contiguous cache-friendly slice *)
  let module BA1 = Bigarray.Array1 in
  let idx = BA1.create Bigarray.int Bigarray.c_layout nnz in
  let w = BA1.create Bigarray.float64 Bigarray.c_layout nnz in
  for u = 0 to n - 1 do
    let r = rows.(u) in
    let base = off.(u) in
    for k = 0 to Array.length r.Estimate.d_idx - 1 do
      BA1.unsafe_set idx (base + k) (Array.unsafe_get r.Estimate.d_idx k);
      BA1.unsafe_set w (base + k) (Array.unsafe_get r.Estimate.d_w k)
    done
  done;
  { tm_expr = expr; tm_off = S.ba_i_of_array off; tm_idx = idx; tm_w = w }

let expr t = t.tm_expr

let n_rows t =
  let module BA1 = Bigarray.Array1 in
  BA1.dim t.tm_off - 1

let nnz t =
  let module BA1 = Bigarray.Array1 in
  BA1.get t.tm_off (BA1.dim t.tm_off - 1)

let row t u =
  let module BA1 = Bigarray.Array1 in
  let lo = BA1.get t.tm_off u and hi = BA1.get t.tm_off (u + 1) in
  { Estimate.d_idx = Array.init (hi - lo) (fun k -> BA1.get t.tm_idx (lo + k));
    Estimate.d_w = Array.init (hi - lo) (fun k -> BA1.get t.tm_w (lo + k)) }

let off t = t.tm_off
let idx t = t.tm_idx
let weights t = t.tm_w

let root_row syn expr = Estimate.root_reach_dist syn expr
