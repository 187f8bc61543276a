module Synopsis = Xc_core.Synopsis
module Plan = Xc_core.Plan
module Mx = Xc_util.Metrics
module Sealed = Synopsis.Sealed

type document = Xc_xml.Document.t
type query = Xc_twig.Twig_query.t
type builder = Synopsis.Builder.t
type synopsis = Sealed.t

type budget = Xc_core.Build.budget = {
  bstr : int;
  bval : int;
  pool : Xc_core.Pool.config;
}

module Build = struct
  let budget = Xc_core.Build.budget
  let reference = Xc_core.Reference.build
  let seal = Synopsis.freeze
  let compress b reference = Xc_core.Build.run b reference
  let compress_builder = Xc_core.Build.run_builder

  let run ?budget:b ?min_extent ?value_min_extent ?value_paths doc =
    let b = match b with Some b -> b | None -> budget () in
    compress b (reference ?min_extent ?value_min_extent ?value_paths doc)

  type mutation = Xc_core.Update.mutation =
    | Insert of { parent : Xc_xml.Label.t list; subtree : Xc_xml.Node.t }
    | Delete of { parent : Xc_xml.Label.t list; subtree : Xc_xml.Node.t }

  type update_stats = Xc_core.Update.stats = {
    applied : int;
    skipped : int;
    dirty : int;
    created : int;
    removed : int;
    repair_merges : int;
  }

  let update ?budget:b syn mutations =
    let b = match b with Some b -> b | None -> budget () in
    Xc_core.Update.apply ~budget:b syn mutations

  let update_and_seal ?budget:b syn mutations =
    let b = match b with Some b -> b | None -> budget () in
    Xc_core.Update.apply_and_seal ~budget:b syn mutations

  let auto_split = Xc_core.Build.auto_split
  let builder_stats ppf b = Synopsis.Builder.pp_stats ppf b
end

module Query = struct
  let parse = Xc_twig.Twig_parse.parse
  let estimate = Xc_serve.Engine.estimate
  let estimate_uncached = Xc_serve.Engine.estimate_uncached
  let explain = Xc_core.Estimate.explain

  let validate = Sealed.validate
  let pp_stats = Sealed.pp_stats
  let n_nodes = Sealed.n_nodes
  let n_edges = Sealed.n_edges
  let size_bytes syn = Sealed.structural_bytes syn + Sealed.value_bytes syn
  let succ = Sealed.succ
  let pred = Sealed.pred
end

module Store = struct
  type error = Xc_core.Codec.error

  let save = Xc_core.Codec.save

  let load path =
    match Xc_core.Codec.load path with
    | Ok _ as ok -> ok
    | Error _ as e ->
      Mx.incr Xc_util.Meters.Serve.load_error;
      e

  let save_exn = Xc_core.Codec.save_exn
  let load_exn = Xc_core.Codec.load_exn
  let verify = Xc_core.Codec.verify
  let sections = Xc_core.Codec.sections
end

module Serve = struct
  module Error = Xc_serve.Error

  type error = Error.t

  let estimate_batch = Xc_serve.Engine.estimate_batch
  let batch_engine = Xc_serve.Engine.batch_for

  module Protocol = Xc_serve.Protocol
  module Registry = Xc_serve.Registry
  module Daemon = Xc_serve.Daemon
  module Client = Xc_serve.Client
end

module Metrics = struct
  let snapshot () = Mx.snapshot Mx.global
  let json () = Mx.to_json (snapshot ())
  let reset () = Mx.reset Mx.global
end
