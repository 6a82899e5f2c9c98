(** Metric arithmetic of the benchmark, kept free of any simulation so
    it can be unit-tested directly. *)

val name_ok : string -> bool
(** A valid metric name: 1–64 characters from [A-Za-z0-9_.-], starting
    with a letter or digit. *)

val median : float list -> float
(** @raise Invalid_argument on an empty list. *)

val failed_pct : attempted:int -> failed:int -> float
(** Failed or refused operations as a percentage of those attempted.
    @raise Invalid_argument if nothing was attempted or [failed] is
    outside [0, attempted]. *)

val reportable_percentile : samples:int -> float option
(** The highest percentile of p50, p90, p99, p99.9, p99.99 that has at
    least ten of [samples] beyond it ([None] below 20 samples). *)

val p99_reportable : samples:int -> bool
(** [samples] is large enough to report a p99 (at least 1000). *)

val paper_err_pct : float list list -> float
(** Mean absolute relative error, in percent, of simulated Table III
    cells against [Paper_data.table3]. The argument holds five columns
    (native, then 1–4 guests), each
    [[entry; exit; PL IRQ entry; execution; total]] in µs. Cells the
    paper reports as zero are skipped.
    @raise Invalid_argument on any other shape. *)

type metric = { name : string; value : float; unit_ : string }

val metric : string -> string -> float -> metric
(** [metric name unit value]. *)

val json_number : float -> string
(** Round-trip precision. @raise Invalid_argument on NaN or infinity. *)

val result_json :
  correct:bool -> attempted:int -> failed:int -> metric list -> string
(** The one-line result object:
    [{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}].
    @raise Invalid_argument on an invalid metric name. *)
