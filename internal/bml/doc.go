// Package bml implements the paper's primary contribution: the
// Big/Medium/Little methodology for composing heterogeneous machine classes
// into an energy-proportional data center.
//
// The package follows the paper's five-step structure:
//
//   - Step 1 (profiling) is provided by internal/profile and
//     internal/profiler; this package consumes profile.Arch values.
//   - Step 2: FilterDominated removes architectures that deliver less
//     performance than a faster architecture while drawing more power.
//   - Step 3: Thresholds with Homogeneous mode computes, for each class, the
//     minimum-utilization threshold against homogeneous fleets of the next
//     smaller class (crossing points).
//   - Step 4: Thresholds with Combinations mode re-evaluates the crossing
//     points against optimal mixed combinations of all smaller classes,
//     which raises the Big threshold and removes the power jump the paper
//     shows in Figure 2. PruneNonCrossing additionally discards classes
//     whose profile never becomes the cheapest option at any rate (the fate
//     of Graphene in the paper's evaluation).
//   - Final step: Planner.Combination computes the ideal machine multiset
//     for a target performance rate — full Big nodes first, then the
//     threshold-guided choice for the remainder — and Planner.PowerAt the
//     corresponding power. ExactSolver provides the dynamic-programming
//     optimum used as the theoretical reference.
//
// All rates are expressed in the application metric (requests/s in the
// paper). The planner works on an integer rate grid of configurable
// granularity; the paper's evaluation uses 1 req/s.
package bml
