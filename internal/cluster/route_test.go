package cluster

import "testing"

func TestLeastLoadedPicksSmallest(t *testing.T) {
	loads := []float64{3, 1, 2}
	got := LeastLoaded([]int{0, 1, 2}, func(i int) float64 { return loads[i] })
	if got != 1 {
		t.Errorf("LeastLoaded = %d, want 1", got)
	}
}

func TestLeastLoadedTiesGoEarliest(t *testing.T) {
	loads := []float64{2, 2, 2}
	if got := LeastLoaded([]int{0, 1, 2}, func(i int) float64 { return loads[i] }); got != 0 {
		t.Errorf("full tie picked %d, want 0", got)
	}
	// Candidate order, not index order, decides the tie-break: a router
	// restricted to healthy nodes passes a subset.
	if got := LeastLoaded([]int{2, 1}, func(i int) float64 { return loads[i] }); got != 2 {
		t.Errorf("subset tie picked %d, want 2 (first candidate)", got)
	}
}

func TestClusterPerNodeSummaries(t *testing.T) {
	for _, p := range []Policy{KubeAbacus, Clockwork} {
		res := smallCluster(t, p, 60, 8)
		if len(res.Nodes) == 0 {
			t.Fatalf("%v: no per-node summaries", p)
		}
		total, completed, dropped := 0, 0, 0
		servedNodes := 0
		for _, n := range res.Nodes {
			total += n.Queries
			completed += n.Completed
			dropped += n.Dropped
			if n.Node >= 0 && n.Completed > 0 {
				servedNodes++
				if n.P99 <= 0 || n.P50 > n.P99 {
					t.Errorf("%v node %d: implausible percentiles p50=%v p99=%v", p, n.Node, n.P50, n.P99)
				}
				if n.Goodput <= 0 {
					t.Errorf("%v node %d: goodput %v", p, n.Node, n.Goodput)
				}
			}
			if n.Node < 0 && n.Completed > 0 {
				t.Errorf("%v: controller-drop pseudo-node completed %d queries", p, n.Completed)
			}
		}
		if total != res.Total || completed != res.Completed || dropped != res.Dropped {
			t.Errorf("%v: node summaries (%d/%d/%d) disagree with totals (%d/%d/%d)",
				p, total, completed, dropped, res.Total, res.Completed, res.Dropped)
		}
		// Least-loaded routing over a 2-GPU fleet at 60 QPS must use both.
		if servedNodes < 2 {
			t.Errorf("%v: only %d nodes served traffic", p, servedNodes)
		}
	}
}
