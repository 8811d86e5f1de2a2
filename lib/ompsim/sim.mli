(** Discrete simulation of OpenMP parallel-for execution.

    The container running this reproduction has a single CPU, so the
    paper's 12-thread wall-clock measurements (Figure 9) cannot be
    taken natively. This simulator replaces them: given the cost of
    every scheduled iteration (which for non-rectangular nests is where
    all the load imbalance lives) and a schedule, it computes each
    thread's busy time and the loop's makespan exactly — static
    schedules by direct partitioning, dynamic/guided by event-driven
    simulation with a per-dispatch overhead, mirroring the runtime
    costs the paper attributes to [schedule(dynamic)].

    Cost units are arbitrary (call them "work units"); overheads are
    expressed in the same units. *)

type overheads = {
  fork_join : float;  (** one-time parallel region cost *)
  dispatch : float;  (** cost charged per dynamically acquired chunk *)
  chunk_start : float;
      (** cost charged at each chunk start — the collapsed schemes'
          costly index recovery (§V) *)
  per_iter : float;
      (** cost added to every iteration — incrementation overhead of
          the §V scheme, or full recovery cost for the naive scheme *)
}

val no_overheads : overheads

type result = {
  makespan : float;  (** parallel execution time *)
  busy : float array;  (** per-thread busy time *)
  total_work : float;  (** sum of iteration costs without overheads *)
  chunks_dispatched : int;
  imbalance : float;
      (** makespan / (ideal distribution of the executed work),
          >= 1.0; 1.0 means perfectly balanced *)
}

(** [run ~costs ~schedule ~nthreads ~overheads] simulates one parallel
    loop whose iteration [q] costs [costs.(q)]. *)
val run :
  costs:float array -> schedule:Schedule.t -> nthreads:int -> overheads:overheads -> result

(** [serial ~costs ~overheads] is the 1-thread reference time (no
    fork/join, single chunk). *)
val serial : costs:float array -> overheads:overheads -> float

(** [gain ~baseline ~improved] is the paper's Figure 9 metric
    [(t_baseline - t_improved) / t_baseline]. *)
val gain : baseline:float -> improved:float -> float

(** {2 Fault model}

    Cost model of {!Par.reduce}'s bounded chunk retry: each
    chunk attempt fails independently with probability [p] and is
    re-run up to [retries] times (the transient-fault model of
    {!Fault}). *)

(** [expected_attempts ~p ~retries] is the mean number of times one
    chunk is executed: [sum_{k=0..retries} p^k =
    (1 - p^(retries+1)) / (1 - p)], i.e. [retries + 1] at [p = 1].
    @raise Invalid_argument when [p] is outside [0,1] or
    [retries < 0]. *)
val expected_attempts : p:float -> retries:int -> float

(** [completion_probability ~p ~retries] is the probability one chunk
    succeeds within its retry budget: [1 - p^(retries+1)]. Chunks that
    miss it fall to the serial path, serializing their whole cost.
    @raise Invalid_argument when [p] is outside [0,1] or
    [retries < 0]. *)
val completion_probability : p:float -> retries:int -> float

(** [resilient_overheads ov ~p ~retries] inflates the per-chunk costs
    of [ov] by {!expected_attempts} — every retry re-pays the dispatch
    bookkeeping and the chunk-start recovery, while [fork_join] and
    the per-iteration cost are paid once (failed attempts abort before
    iterating). *)
val resilient_overheads : overheads -> p:float -> retries:int -> overheads
