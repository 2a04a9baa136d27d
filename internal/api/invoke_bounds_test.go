package api

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mlcr/internal/evict"
	"mlcr/internal/fstartbench"
	"mlcr/internal/platform"
	"mlcr/internal/policy"
	"mlcr/internal/pool"
)

// invokeEngine is one /invoke engine under test with a way to count
// the invocations it has served.
type invokeEngine struct {
	name   string
	h      http.Handler
	served func() int
}

// invokeEngines builds one of each engine: the deterministic Server and
// the concurrent Gateway.
func invokeEngines(t *testing.T) []invokeEngine {
	t.Helper()
	s, err := New(Config{
		Functions:      fstartbench.Functions(),
		PoolCapacityMB: 4096,
		NewScheduler:   func() platform.Scheduler { return policy.NewGreedyMatch() },
		NewEvictor:     func() pool.Evictor { return evict.NewLRU() },
	})
	if err != nil {
		t.Fatal(err)
	}
	g := testGateway(t, GatewayConfig{})
	return []invokeEngine{
		{"server", s, func() int { return s.Stats().Invocations }},
		{"gateway", g, func() int { return g.Stats().Invocations }},
	}
}

func postInvoke(h http.Handler, body string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/invoke", strings.NewReader(body)))
	return rec.Code
}

// TestInvokeDurationBounds checks both engines refuse millisecond
// fields whose time.Duration conversion would wrap, instead of serving
// the request at a wrapped (possibly "now") time, and still serve the
// largest accepted values without overflowing virtual time.
func TestInvokeDurationBounds(t *testing.T) {
	wrap := math.MaxInt64/int64(time.Millisecond) + 1
	cases := []struct {
		name string
		body string
		want int
	}{
		{"at_ms wraps", fmt.Sprintf(`{"fn_id": 1, "at_ms": %d}`, wrap), http.StatusBadRequest},
		{"at_ms max int64", `{"fn_id": 1, "at_ms": 9223372036854775807}`, http.StatusBadRequest},
		{"at_ms over", fmt.Sprintf(`{"fn_id": 1, "at_ms": %d}`, maxInvokeMS+1), http.StatusBadRequest},
		{"at_ms under", fmt.Sprintf(`{"fn_id": 1, "at_ms": %d}`, -maxInvokeMS-1), http.StatusBadRequest},
		{"exec_ms wraps", fmt.Sprintf(`{"fn_id": 1, "exec_ms": %d}`, wrap), http.StatusBadRequest},
		{"exec_ms over", fmt.Sprintf(`{"fn_id": 1, "exec_ms": %d}`, maxInvokeMS+1), http.StatusBadRequest},
		{"exec_ms under", fmt.Sprintf(`{"fn_id": 1, "exec_ms": %d}`, -maxInvokeMS-1), http.StatusBadRequest},
		{"both at bound", fmt.Sprintf(`{"fn_id": 1, "at_ms": %d, "exec_ms": %d}`, maxInvokeMS, maxInvokeMS), http.StatusOK},
	}
	for _, e := range invokeEngines(t) {
		for _, tc := range cases {
			if got := postInvoke(e.h, tc.body); got != tc.want {
				t.Errorf("%s %s: status %d, want %d", e.name, tc.name, got, tc.want)
			}
		}
		if n := e.served(); n != 1 {
			t.Errorf("%s: served %d invocations, want only the in-range one", e.name, n)
		}
	}
}

// TestInvokeRefusesOversizedBody checks both engines stop reading an
// /invoke body past maxInvokeBody bytes, answer 413 and serve nothing.
func TestInvokeRefusesOversizedBody(t *testing.T) {
	pad := bytes.Repeat([]byte{' '}, maxInvokeBody)
	body := `{"fn_id": 1,` + string(pad) + `"at_ms": 1000}`
	for _, e := range invokeEngines(t) {
		if got := postInvoke(e.h, body); got != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body status %d, want 413", e.name, got)
		}
		if n := e.served(); n != 0 {
			t.Errorf("%s: served %d invocations from an oversized body", e.name, n)
		}
		if got := postInvoke(e.h, `{"fn_id": 1, "at_ms": 1000}`); got != http.StatusOK {
			t.Errorf("%s: small body after refusal: status %d, want 200", e.name, got)
		}
	}
}
