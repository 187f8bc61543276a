type t =
  | Vnone
  | Vnum of Histogram.t
  | Vstr of Pst.t
  | Vtext of Term_hist.t

let vnone = Vnone

let of_values ?(hist_buckets = 64) ?(pst_depth = 8) ?(pst_nodes = 2048)
    ?(top_terms = 4096) values =
  let nums = ref [] and strs = ref [] and texts = ref [] in
  List.iter
    (fun v ->
      match v with
      | Xc_xml.Value.Null -> ()
      | Xc_xml.Value.Numeric n -> nums := n :: !nums
      | Xc_xml.Value.Str s -> strs := s :: !strs
      | Xc_xml.Value.Text terms -> texts := terms :: !texts)
    values;
  match !nums, !strs, !texts with
  | [], [], [] -> Vnone
  | nums, [], [] -> Vnum (Histogram.build ~n_buckets:hist_buckets (Array.of_list nums))
  | [], strs, [] -> Vstr (Pst.build ~max_depth:pst_depth ~max_nodes:pst_nodes strs)
  | [], [], texts -> Vtext (Term_hist.build ~top_k:top_terms texts)
  | _ -> invalid_arg "Value_summary.of_values: mixed value types"

let fits vtype v =
  match v, vtype with
  | Vnone, _
  | Vnum _, Xc_xml.Value.Tnumeric
  | Vstr _, Xc_xml.Value.Tstring
  | Vtext _, Xc_xml.Value.Ttext -> true
  | (Vnum _ | Vstr _ | Vtext _), _ -> false

let size_bytes = function
  | Vnone -> 0
  | Vnum h -> Histogram.size_bytes h
  | Vstr p -> Pst.size_bytes p
  | Vtext th -> Term_hist.size_bytes th

let fuse a b =
  match a, b with
  | Vnone, Vnone -> Vnone
  | Vnum x, Vnum y -> Vnum (Histogram.merge x y)
  | Vstr x, Vstr y -> Vstr (Pst.merge x y)
  | Vtext x, Vtext y -> Vtext (Term_hist.fuse x y)
  | (Vnone | Vnum _ | Vstr _ | Vtext _), _ ->
    invalid_arg "Value_summary.fuse: type mismatch"

let numeric_dots x y =
  let suu = ref 0.0 and svv = ref 0.0 and suv = ref 0.0 in
  let visit h =
    let a = Histogram.prefix_fraction x h and b = Histogram.prefix_fraction y h in
    suu := !suu +. (a *. a);
    svv := !svv +. (b *. b);
    suv := !suv +. (a *. b)
  in
  (* both boundary lists arrive ascending; walk their union in order
     (the same visit sequence as materializing the union set) *)
  let rec merge xs ys =
    match xs, ys with
    | [], [] -> ()
    | h :: tl, [] | [], h :: tl ->
      visit h;
      merge tl []
    | hx :: tx, hy :: ty ->
      if hx < hy then begin
        visit hx;
        merge tx ys
      end
      else if hy < hx then begin
        visit hy;
        merge xs ty
      end
      else begin
        visit hx;
        merge tx ty
      end
  in
  merge (Histogram.boundaries x) (Histogram.boundaries y);
  (!suu, !svv, !suv)

let pred_dots a b =
  match a, b with
  | Vnone, Vnone -> (1.0, 1.0, 1.0)
  | Vnum x, Vnum y -> numeric_dots x y
  | Vstr x, Vstr y ->
    let suu, svv, suv = Pst.dot_products x y in
    (suu, svv, suv)
  | Vtext x, Vtext y ->
    let suu, svv, suv = Term_hist.dot_products x y in
    (suu, svv, suv)
  | (Vnone | Vnum _ | Vstr _ | Vtext _), _ ->
    invalid_arg "Value_summary.pred_dots: type mismatch"

let self_dots s =
  let suu, _, _ = pred_dots s s in
  suu

type step = {
  err : float;
  saved : int;
  apply : unit -> t;
}

(* The preview already locates (and for the immutable summaries,
   builds) the compressed result; the [apply] closure carries it so
   applying a previewed step costs nothing beyond the preview. [Vstr]
   prunes in place and so must defer the mutation to [apply] — its
   closure re-pops the already-validated heap top, which is O(1). *)
let compress_step = function
  | Vnone -> None
  | Vnum h ->
    if Histogram.n_buckets h < 2 then None
    else
      let err, i = Histogram.compress_error h in
      Some { err; saved = 8; apply = (fun () -> Vnum (Histogram.merge_at h i)) }
  | Vstr p ->
    Option.map
      (fun err ->
        { err;
          saved = 9;
          apply =
            (fun () ->
              ignore (Pst.prune_once p);
              Vstr p) })
      (Pst.peek_prune p)
  | Vtext th ->
    Option.map
      (fun (err, saved, th') -> { err; saved; apply = (fun () -> Vtext th') })
      (Term_hist.compress_once th)

(* A typed cluster without a summary is an undesignated path: the
   synopsis carries no evidence that its values ever satisfy predicates,
   so σ estimates to 0 — this keeps generalized steps (//tag) from
   pulling in the full extent of unsummarized same-tag clusters. *)

let numeric_selectivity s ~lo ~hi =
  match s with
  | Vnone -> 0.0
  | Vnum h -> Histogram.range_fraction h lo hi
  | Vstr _ | Vtext _ -> invalid_arg "Value_summary.numeric_selectivity"

let substring_selectivity s qs =
  match s with
  | Vnone -> 0.0
  | Vstr p -> Pst.selectivity p qs
  | Vnum _ | Vtext _ -> invalid_arg "Value_summary.substring_selectivity"

let text_selectivity s terms =
  match s with
  | Vnone -> 0.0
  | Vtext th -> Term_hist.selectivity th terms
  | Vnum _ | Vstr _ -> invalid_arg "Value_summary.text_selectivity"

let type_name = function
  | Vnone -> "none"
  | Vnum _ -> "numeric"
  | Vstr _ -> "string"
  | Vtext _ -> "text"

let pp ppf = function
  | Vnone -> Format.pp_print_string ppf "vnone"
  | Vnum h -> Histogram.pp ppf h
  | Vstr p -> Pst.pp ppf p
  | Vtext th -> Term_hist.pp ppf th

let copy = function
  | Vnone -> Vnone
  | Vnum h -> Vnum h (* immutable *)
  | Vstr p -> Vstr (Pst.copy p)
  | Vtext th -> Vtext th (* immutable *)

let term_frequency s term =
  match s with
  | Vnone -> 0.0
  | Vtext th -> Term_hist.frequency th (term : Xc_xml.Dictionary.term :> int)
  | Vnum _ | Vstr _ -> invalid_arg "Value_summary.term_frequency"
