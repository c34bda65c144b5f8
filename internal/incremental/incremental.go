// Package incremental maintains the paper's three structural
// measurements — k-core decomposition (§III-B), BFS expansion envelopes
// (§III-D), and the SLEM/mixing bound (§III-C) — across fault-schedule
// epochs without recomputing them from scratch. The fault model reports
// each epoch advance as a faults.EpochDelta (the exact live-topology
// symmetric difference); the maintainers in this package consume that
// delta and repair only the state the delta actually invalidates:
//
//   - CoreMaintainer re-evaluates coreness only inside the affected
//     subcores, per the Batagelj–Zaveršnik generalized-core update
//     rules: a monotone h-operator descent for removals and a per-edge
//     subcore traversal for insertions.
//   - ExpansionMaintainer repairs each BFS source's distance field with
//     a batched Ramalingam–Reps pass (deletions first, then insertions
//     as a multi-source relaxation), keeping per-level counts exact.
//   - SLEMMaintainer measures the SLEM cold on the largest component
//     each epoch: Lanczos from a seeded start needs about as few steps
//     as one warm-started from the previous epoch, so there is no
//     state worth carrying.
//
// Every maintainer produces results bit-identical to its from-scratch
// counterpart, and the core and expansion maintainers fall back to the
// full recomputation when a delta is too large for the repair to be
// cheaper (the budgets are documented per maintainer).
// Deltas are only small when the fault schedule evolves rather than
// redraws, so pair these with faults.Config.Drift.
package incremental
