(** Keyed single-flight duplicate suppression, shared by the plan
    cache, the exec-reference memo and the native-handle cache.

    A flight is one in-progress computation for a key. The first
    requester {!enter}s, computes with the owner's mutex {e released},
    then {!publish}es; concurrent requesters {!join} and {!await} the
    winner's result on a condition variable. A published failure
    reaches every waiter but poisons nothing — the flight is forgotten
    and the next request computes again.

    The synchronization discipline is the owner's: every function here
    must be called with the owner's mutex held ({!await} releases it
    while parked, as [Condition.wait] does). *)

type 'a flight
type 'a t

val create : unit -> 'a t

(** [join t key] is the in-progress flight for [key], if any. *)
val join : 'a t -> string -> 'a flight option

(** [enter t key] registers and returns a fresh flight for [key]; the
    caller is now the winner and must eventually {!publish}. *)
val enter : 'a t -> string -> 'a flight

(** [await fl ~mutex] parks until the winner publishes, then returns
    its result. [mutex] is the owner's mutex, held by the caller. *)
val await : 'a flight -> mutex:Mutex.t -> ('a, string) result

(** [publish t key fl result] resolves [fl] with [result], forgets the
    flight and wakes every waiter. *)
val publish : 'a t -> string -> 'a flight -> ('a, string) result -> unit
