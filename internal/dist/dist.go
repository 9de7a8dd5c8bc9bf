// Package dist is the owner-compute distributed runtime of op2hpx: the
// OP2 abstraction executed across simulated localities, with goroutines
// standing in for ranks and channel messages for the network — the
// architecture of OP2's MPI backend re-expressed with the paper's
// futures-based latency hiding.
//
// # Localized meshes
//
// Every set a loop touches is partitioned across the ranks: either for
// real, by a part.Partitioner over registered mesh topology, or derived
// through a map (an edge executes on the rank owning its first cell).
// Each rank numbers every partitioned set locally — its owned elements
// first (ascending global id), then an import halo whose slots are
// assigned as loop plans reference foreign elements — in the layout of
// OP2's MPI backend. Every dat some loop writes becomes one contiguous
// rank-local array in that numbering, and every map a loop uses becomes a
// rank-local table whose rows follow the source set's numbering and
// whose values index the target set's; maps into sets that are not
// partitioned (airfoil's nodes, whose coordinates are only read) keep
// global ids. Read-only dats on partitioned sets are gathered into the
// local numbering at the start of each loop, so host writes to them stay
// visible. The declaration's global array of a written dat is stale while
// shards are live; Dat.Sync flushes the owned values back.
//
// Each rank runs the loop's compiled body: the Body factory (or the
// generic view builder of a Kernel-only loop) is bound once per rank to
// the local arrays and tables when the step is compiled, and rebound only
// after a later plan build has grown a local mesh — never in a
// steady-state step.
//
// # Compute/communication overlap
//
// Per loop, each rank's local elements run in the loop plan's
// ElementOrder, split into two phases: an element runs early only if it
// reads no halo value and none of the owned increment targets it shares
// has already taken a contribution from a late element. Each phase runs
// the bound body over maximal runs of consecutive local positions. A
// rank posts its read-halo exchange as hpx futures, executes the early
// elements while messages are in flight, and gates only the late ones on
// halo resolution — the paper's thesis (hide latency by letting the
// runtime schedule around futures) applied to distribution. Ranks are
// persistent workers (one long-lived goroutine plus mailbox each, no
// fork/join per loop), so a rank done with loop N pipelines straight into
// loop N+1.
//
// # Exec halo and bitwise reproducibility
//
// A loop with indirect increments also executes its exec halo: the
// foreign elements that increment one of the rank's owned elements run
// redundantly on the rank. Owned elements therefore receive every
// contribution locally and increments never cross the wire; the
// contributions that land in halo slots are cleared before the loop and
// never read. Because each rank executes its elements in plan order and
// the early/late split never lets a contribution overtake an earlier one
// to the same target, every owned element receives its increments in the
// serial order. Global Inc reductions call the body once per owned
// element into a per-element slot and fold the slots in the serial order
// (Min/Max combine per-rank partials up a binary tree — they are
// associative, so the tree cannot change the result). The distributed
// airfoil is therefore bitwise-identical to the serial backend at every
// rank count and under every partitioner.
package dist
