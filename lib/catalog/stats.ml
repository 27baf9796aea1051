type relation = {
  ncard : int;
  tcard : int;
  p : float;
}

type index = {
  icard : int;
  nindx : int;
  low_key : Rel.Value.t option;
  high_key : Rel.Value.t option;
  cluster_ratio : float;
}

type column = {
  hist : Histogram.t;
}

let pp_relation ppf r =
  Format.fprintf ppf "NCARD=%d TCARD=%d P=%.3f" r.ncard r.tcard r.p

let pp_opt ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some v -> Rel.Value.pp ppf v

let pp_index ppf i =
  Format.fprintf ppf "ICARD=%d NINDX=%d low=%a high=%a cluster=%.2f" i.icard
    i.nindx pp_opt i.low_key pp_opt i.high_key i.cluster_ratio
