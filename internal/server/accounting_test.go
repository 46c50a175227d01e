package server

import (
	"context"
	"net/http"
	"sync"
	"testing"

	"abacus/internal/admit"
	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
)

// TestStatzOutcomesDisjoint forces controller drops and checks the /statz
// books after Drain: every accepted query ends as exactly one of completed
// or dropped, and violated counts only completed queries — good, violated
// and dropped are disjoint, as in the chaos reports.
func TestStatzOutcomesDisjoint(t *testing.T) {
	// A model that predicts a fifth of the true latency: admission lets a
	// burst through that the device cannot finish in time, and the
	// controller drops the queries whose deadline has already slipped.
	under := predictor.NewPerturbed(predictor.Oracle{Profile: gpusim.A100Profile()}, 0.2, 0, 1)
	s, c := newTestServer(t, Config{
		Models:  []dnn.ModelID{dnn.ResNet152},
		Speedup: 5,
		Model:   under,
		Degrade: admit.DegradeConfig{Disabled: true},
	})
	const burst = 40
	var wg sync.WaitGroup
	var mu sync.Mutex
	var drops int
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, status, err := c.Infer(context.Background(), InferRequest{Model: "Res152", Batch: 32})
			if err != nil {
				t.Error(err)
				return
			}
			if status == http.StatusGatewayTimeout {
				mu.Lock()
				drops++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.Drain()

	st := s.statz().Services[0]
	if st.Dropped == 0 || drops == 0 {
		t.Fatalf("no controller drop forced (statz dropped %d, 504s %d)", st.Dropped, drops)
	}
	if st.Dropped != int64(drops) {
		t.Errorf("statz dropped %d, clients saw %d drops", st.Dropped, drops)
	}
	if st.Violated > st.Completed {
		t.Errorf("violated %d > completed %d: drops counted as violations", st.Violated, st.Completed)
	}
	if st.Accepted != st.Completed+st.Dropped {
		t.Errorf("accepted %d != completed %d + dropped %d", st.Accepted, st.Completed, st.Dropped)
	}
}
