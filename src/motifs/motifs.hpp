// Umbrella header: the native algorithmic-motif library (the public API).
//
// A motif is a reusable parallel program structure completed by
// application-specific routines (paper Section 1). This library offers:
//   tree.hpp / tree_reduce.hpp — binary trees; Tree-Reduce-1 (random
//       mapping), Tree-Reduce-2 (labelled, memory-bounded), static
//       partition baseline, sequential oracle
//   server.hpp        — fully connected server network (send/nodes/halt)
//   scheduler.hpp     — manager/worker DAG scheduler, flat or hierarchical
//   dnc.hpp           — generic divide and conquer with random mapping
//   search.hpp        — or-parallel search: count / first / branch&bound
//   sort.hpp          — merge sort (composed from D&C) and sample sort
//   grid.hpp          — 2-D grid relaxation (Jacobi)
//   graph.hpp         — CSR graphs, level-synchronous BFS, components
//   pipeline.hpp      — Figure 1 producer/consumer chain on streams with
//       credit acks
//   parallel_for.hpp  — the one block fork-join (parallel_blocks), loops
//       and reductions
//   scan.hpp          — parallel prefix (inclusive/exclusive)
//   wavefront.hpp     — tiled anti-diagonal DP grids: the caller runs
//       ready tiles and idle processors help (safe inside a task)
//
// All motifs, the pipeline included, execute on runtime/machine.hpp's
// simulated multicomputer; the Strand-level counterparts (transform/ +
// interp/) produce the same structures from high-level programs.
#pragma once

#include "motifs/dnc.hpp"
#include "motifs/graph.hpp"
#include "motifs/grid.hpp"
#include "motifs/parallel_for.hpp"
#include "motifs/pipeline.hpp"
#include "motifs/scheduler.hpp"
#include "motifs/search.hpp"
#include "motifs/scan.hpp"
#include "motifs/server.hpp"
#include "motifs/sort.hpp"
#include "motifs/supervise.hpp"
#include "motifs/tree.hpp"
#include "motifs/tree_reduce.hpp"
#include "motifs/wavefront.hpp"
