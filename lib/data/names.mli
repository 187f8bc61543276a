(** Pools of short string values for the synthetic generators.

    These feed the STRING-typed elements (titles, person names, cities,
    ...) whose distributions the PST summaries must capture: realistic
    shared prefixes/suffixes and skewed character n-grams matter for
    substring selectivity, so the pools are real-word-like rather than
    random bytes. *)

val first_names : string array
val last_names : string array
val cities : string array
val countries : string array
val streets : string array
val genres : string array
val payment_kinds : string array
val education_levels : string array
val title_words : string array
val auction_types : string array

val person_name : Xc_util.Rng.t -> string
(** "First Last". *)

val email : Xc_util.Rng.t -> string
val phone : Xc_util.Rng.t -> string
val time_string : Xc_util.Rng.t -> string
val credit_card : Xc_util.Rng.t -> string
val url : Xc_util.Rng.t -> string
