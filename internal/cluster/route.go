package cluster

// LeastLoaded returns the element of candidates whose load is smallest,
// breaking ties toward the earliest candidate — the KubeAbacus routing rule
// (§7.6, "least outstanding work, ties by index"). The online router in
// internal/fleet applies the same policy in place, without a candidate
// slice (pinned by its TestRouteAgreesWithLeastLoaded). candidates must be
// non-empty.
func LeastLoaded(candidates []int, load func(int) float64) int {
	best := candidates[0]
	bestLoad := load(best)
	for _, c := range candidates[1:] {
		if l := load(c); l < bestLoad {
			best, bestLoad = c, l
		}
	}
	return best
}
