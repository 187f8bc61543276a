module S = Synopsis.Sealed
module BA1 = Bigarray.Array1
module Metrics = Xc_util.Metrics
module Meters = Xc_util.Meters

type t = {
  tm_syn : S.t;
  tm_expr : Xc_twig.Path_expr.t;
  tm_spans : int array;  (* 2 per node: lo, hi; lo = -1 until built *)
  mutable tm_idx : S.ba_i;  (* target indices, ascending within a row *)
  mutable tm_w : S.ba_f;
  mutable tm_nnz : int;  (* used prefix of the buffers *)
  mutable tm_built : int;
}

let create syn expr =
  { tm_syn = syn;
    tm_expr = expr;
    tm_spans = Array.make (2 * S.n_nodes syn) (-1);
    tm_idx = BA1.create Bigarray.int Bigarray.c_layout 64;
    tm_w = BA1.create Bigarray.float64 Bigarray.c_layout 64;
    tm_nnz = 0;
    tm_built = 0 }

(* Room for [need] entries. Growth copies the used prefix into fresh
   buffers and never writes the old ones again, so a compiled edge that
   fetched them keeps reading its rows there. *)
let reserve t need =
  let cap = BA1.dim t.tm_idx in
  if need > cap then begin
    let cap = max need (2 * cap) in
    let idx = BA1.create Bigarray.int Bigarray.c_layout cap in
    let w = BA1.create Bigarray.float64 Bigarray.c_layout cap in
    BA1.blit (BA1.sub t.tm_idx 0 t.tm_nnz) (BA1.sub idx 0 t.tm_nnz);
    BA1.blit (BA1.sub t.tm_w 0 t.tm_nnz) (BA1.sub w 0 t.tm_nnz);
    t.tm_idx <- idx;
    t.tm_w <- w
  end

(* Row u is reach_dist syn expr u: a child step is a sparse composition
   with the sealed child CSR (expand over the row's support, then
   label-filter), a descendant step the height-bounded closure. Building
   through the estimator's own code is what makes every stored float
   bit-identical to an uncached frontier walk — same operations, same
   order. *)
let ensure t a u =
  if Array.unsafe_get t.tm_spans (2 * u) < 0 then begin
    let d = Estimate.reach_dist a t.tm_syn t.tm_expr u in
    let len = Array.length d.Estimate.d_idx in
    let lo = t.tm_nnz in
    reserve t (lo + len);
    for k = 0 to len - 1 do
      BA1.unsafe_set t.tm_idx (lo + k) (Array.unsafe_get d.Estimate.d_idx k);
      BA1.unsafe_set t.tm_w (lo + k) (Array.unsafe_get d.Estimate.d_w k)
    done;
    t.tm_nnz <- lo + len;
    t.tm_spans.(2 * u) <- lo;
    t.tm_spans.((2 * u) + 1) <- lo + len;
    t.tm_built <- t.tm_built + 1;
    Metrics.incr Meters.Batch.mat_rows
  end

let expr t = t.tm_expr
let rows_built t = t.tm_built
let nnz t = t.tm_nnz

let row t u =
  if t.tm_spans.(2 * u) < 0 then invalid_arg "Transition.row: row not built";
  let lo = t.tm_spans.(2 * u) and hi = t.tm_spans.((2 * u) + 1) in
  { Estimate.d_idx = Array.init (hi - lo) (fun k -> BA1.get t.tm_idx (lo + k));
    Estimate.d_w = Array.init (hi - lo) (fun k -> BA1.get t.tm_w (lo + k)) }

let spans t = t.tm_spans
let idx t = t.tm_idx
let weights t = t.tm_w

let root_row a syn expr = Estimate.root_reach_dist a syn expr
