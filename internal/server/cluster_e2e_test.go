package server

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/realtime"
	"abacus/internal/trace"
)

// TestClusterUnpacedEndToEnd drives a two-node gateway in batch mode with
// both models replicated on both nodes: the router's least-loaded choice is
// live, every outcome is conserved, and the per-node /statz rows account for
// exactly the admissions the cluster made.
func TestClusterUnpacedEndToEnd(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	arrivals := trace.NewGenerator(models, 23).Poisson(40, 3000)

	c := startGateway(t, Config{
		Models:    models,
		Nodes:     2,
		Placement: [][]dnn.ModelID{{dnn.ResNet152, dnn.InceptionV3}, {dnn.ResNet152, dnn.InceptionV3}},
		Speedup:   realtime.Unpaced,
	})
	res, err := RunLoad(context.Background(), LoadConfig{
		Client:      c,
		Models:      models,
		Arrivals:    arrivals,
		Closed:      true,
		Concurrency: 8,
		Requests:    len(arrivals),
		Retry:       &RetryPolicy{MaxAttempts: 2, BaseBackoff: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Total
	if tot.Sent != len(arrivals) || tot.Errors != 0 {
		t.Fatalf("sent %d (want %d), errors %d", tot.Sent, len(arrivals), tot.Errors)
	}
	accounted := tot.Completed + tot.Dropped + tot.RejectedDeadline +
		tot.RejectedQueue + tot.RejectedDegraded + tot.Unavailable
	if accounted != tot.Sent {
		t.Fatalf("outcomes %d != sent %d (%+v)", accounted, tot.Sent, tot)
	}
	if tot.Completed == 0 {
		t.Fatal("no queries completed")
	}

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 2 {
		t.Fatalf("statz reports %d nodes, want 2", len(st.Nodes))
	}
	var acc, routed int64
	for _, s := range st.Services {
		acc += s.Accepted
	}
	for _, n := range st.Nodes {
		routed += n.Routed
		if n.KernelsCoalesced > n.KernelsLaunched || (n.Routed > 0) != (n.KernelsLaunched > 0) {
			t.Errorf("node %d routed %d queries, launched %d kernels, coalesced %d", n.Node, n.Routed, n.KernelsLaunched, n.KernelsCoalesced)
		}
		if len(n.Models) != 2 {
			t.Errorf("node %d hosts %v, want both models", n.Node, n.Models)
		}
	}
	if routed != acc {
		t.Errorf("nodes routed %d admissions, gateway accepted %d", routed, acc)
	}
	// Ties favor node 0, but a loaded node 0 must shed onto its replica.
	if st.Nodes[0].Routed == 0 {
		t.Error("node 0 received no traffic")
	}

	body, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(body); err != nil {
		t.Errorf("metrics exposition invalid: %v", err)
	}
	for _, fam := range []string{
		"abacus_node_backlog_predicted_ms{node=\"1\"}",
		"abacus_node_queue_depth{node=\"0\"}",
		"abacus_node_routed_total{node=\"1\"}",
		"abacus_node_migrated_in_total{node=\"0\"}",
		"abacus_node_degraded{node=\"1\"}",
		"abacus_node_kernels_launched_total{node=\"0\"}",
		"abacus_node_kernels_coalesced_total{node=\"1\"}",
	} {
		if !strings.Contains(string(body), fam) {
			t.Errorf("metrics missing per-node sample %s", fam)
		}
	}
}

// TestClusterDuplicateSuppression pins sticky routing: retries of one
// RequestID land on the node that first accepted it, so duplicate
// suppression survives sharding.
func TestClusterDuplicateSuppression(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	c := startGateway(t, Config{
		Models:    models,
		Nodes:     2,
		Placement: [][]dnn.ModelID{{dnn.ResNet152, dnn.InceptionV3}, {dnn.ResNet152, dnn.InceptionV3}},
		Speedup:   realtime.Unpaced,
	})
	req := InferRequest{Model: "Res152", Batch: 4, RequestID: "cluster-dup-1"}
	first, status, err := c.Infer(context.Background(), req)
	if err != nil || status != http.StatusOK || !first.Accepted {
		t.Fatalf("first request: status %d resp %+v err %v", status, first, err)
	}
	second, status, err := c.Infer(context.Background(), req)
	if err != nil || status != http.StatusOK {
		t.Fatalf("retry: status %d err %v", status, err)
	}
	if !second.Duplicate || second.FinishMS != first.FinishMS {
		t.Fatalf("retry not suppressed by the sticky route: %+v vs %+v", second, first)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults.DuplicatesSuppressed != 1 {
		t.Errorf("duplicates_suppressed = %d, want 1", st.Faults.DuplicatesSuppressed)
	}
	var acc int64
	for _, s := range st.Services {
		acc += s.Accepted
	}
	if acc != 1 {
		t.Errorf("cluster accepted %d queries for one RequestID, want 1", acc)
	}
}

// TestClusterConfigValidation exercises the placement checks.
func TestClusterConfigValidation(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet50, dnn.InceptionV3}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"placement size mismatch", Config{Models: models, Nodes: 3,
			Placement: [][]dnn.ModelID{{dnn.ResNet50}, {dnn.InceptionV3}}}},
		{"unhosted model", Config{Models: models,
			Placement: [][]dnn.ModelID{{dnn.ResNet50}, {dnn.ResNet50}}}},
		{"undeployed model placed", Config{Models: models,
			Placement: [][]dnn.ModelID{{dnn.ResNet50, dnn.VGG16}, {dnn.InceptionV3}}}},
		{"model twice on one node", Config{Models: models,
			Placement: [][]dnn.ModelID{{dnn.ResNet50, dnn.ResNet50}, {dnn.InceptionV3}}}},
		{"empty node", Config{Models: models,
			Placement: [][]dnn.ModelID{{dnn.ResNet50, dnn.InceptionV3}, {}}}},
		{"per-node co-location bound", Config{
			Models: []dnn.ModelID{dnn.ResNet50, dnn.ResNet101, dnn.ResNet152, dnn.InceptionV3, dnn.VGG16},
			Placement: [][]dnn.ModelID{{
				dnn.ResNet50, dnn.ResNet101, dnn.ResNet152, dnn.InceptionV3, dnn.VGG16,
			}}}},
		{"negative nodes", Config{Models: models, Nodes: -1}},
		{"duplicate deployment", Config{Models: []dnn.ModelID{dnn.ResNet50, dnn.ResNet50}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// A sharded deployment of five services is fine when no node exceeds the
	// co-location bound — the limit is per GPU, not per gateway.
	ok := Config{
		Models: []dnn.ModelID{dnn.ResNet50, dnn.ResNet101, dnn.ResNet152, dnn.InceptionV3, dnn.VGG16},
		Placement: [][]dnn.ModelID{
			{dnn.ResNet50, dnn.ResNet101, dnn.ResNet152},
			{dnn.InceptionV3, dnn.VGG16},
		},
	}
	if _, err := New(ok); err != nil {
		t.Errorf("valid sharded placement rejected: %v", err)
	}

	// Default multi-node placement derives from the overlap-gain grouping
	// and hosts every model.
	s, err := New(Config{Models: []dnn.ModelID{dnn.ResNet50, dnn.ResNet101, dnn.ResNet152, dnn.InceptionV3}, Nodes: 2})
	if err != nil {
		t.Fatalf("default 2-node placement: %v", err)
	}
	if s.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", s.NumNodes())
	}
}
