// Package dataflow provides the programming model of Section 2: applications
// are graphs of operators connected by streams of tuples, exposing pipeline,
// task and data parallelism. It is the SPL-like layer above the balancing
// machinery — developers describe *what* to compute; the planner decides
// which operators fuse into PEs and where ordered data-parallel regions can
// be introduced; the executor lowers every planned stage onto one in-process
// runtime.Region and connects the stages by bounded in-process edges.
//
// Parallel regions are discovered automatically, exactly as the paper's
// research prototype does: a maximal chain of stateless operators is
// replicated Width ways behind a splitter and in front of an in-order merger
// that restores sequential semantics. The splitter (which samples its own
// blocking and steps the core.Balancer between send rounds) and the merger
// are the runtime's own — the package holds no region implementation, only
// the model (graph.go), the planner (plan.go), the lowering (exec.go) and the
// stage runner that Execute and RunChain share (chain.go).
//
// Tuples are transport.Tuple and operators runtime.Operator throughout, so an
// operator written for a hand-built region runs in a planned graph unchanged.
package dataflow
