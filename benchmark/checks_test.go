package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"gkmeans/client"
	"gkmeans/internal/server"
)

// The output-correctness checks must fire. These tests put a fake daemon —
// the real serving layer behind an httptest listener, with one defect —
// where the pipeline expects gkserved, and require the run to come out
// incorrect.

// smokeRunner is a runner at smoke scale with set-up done.
func smokeRunner(t *testing.T, workload string) *runner {
	t.Helper()
	wl, ok := findWorkload(workload)
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	r := newRunner(options{workload: wl, seed: 7, seconds: 3, smoke: true, workDir: t.TempDir()})
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	return r
}

// fakeDaemon serves r's main index through the real server package, each
// spawn starting from the saved index again, and lets wrap tamper with it.
func fakeDaemon(t *testing.T, r *runner, wrap func(http.Handler) http.Handler) func(...string) (*daemon, error) {
	return func(...string) (*daemon, error) {
		srv := server.New(server.Config{})
		if err := srv.RegisterIndex("main", r.main); err != nil {
			return nil, err
		}
		ts := httptest.NewServer(wrap(srv.Handler()))
		t.Cleanup(func() {
			srv.BeginShutdown()
			ts.Close()
		})
		return &daemon{url: ts.URL}, nil
	}
}

func failedCheck(res *result, about string) bool {
	for _, c := range res.Checks {
		if strings.HasPrefix(c, "FAILED") && strings.Contains(c, about) {
			return true
		}
	}
	return false
}

func TestWrongNeighbourListFailsTheRun(t *testing.T) {
	r := smokeRunner(t, "serve-read")
	// Swap the two nearest neighbours of every single-query answer: still
	// ten plausible ids in a 200, but not what the index returns.
	r.spawn = fakeDaemon(t, r, func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if !strings.HasSuffix(req.URL.Path, "/search") {
				inner.ServeHTTP(w, req)
				return
			}
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, req)
			var out client.SearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err == nil && len(out.Results) == 1 && len(out.Results[0]) > 1 {
				nbs := out.Results[0]
				nbs[0], nbs[1] = nbs[1], nbs[0]
				blob, _ := json.Marshal(out)
				w.Header().Set("Content-Type", "application/json")
				w.Write(blob)
				return
			}
			w.WriteHeader(rec.Code)
			io.Copy(w, bytes.NewReader(rec.Body.Bytes()))
		})
	})
	if err := r.readStage(); err != nil {
		t.Fatal(err)
	}
	if r.res.Correct || !failedCheck(r.res, "bit-identical") {
		t.Errorf("a daemon answering a wrong neighbour list must fail the run; checks: %q", r.res.Checks)
	}
}

func TestForgottenWriteFailsTheRun(t *testing.T) {
	r := smokeRunner(t, "serve-mixed")
	// Every "restart" of this daemon comes back with the saved index and
	// none of the writes it acknowledged.
	r.spawn = fakeDaemon(t, r, func(h http.Handler) http.Handler { return h })
	if err := r.mixedStage(); err != nil {
		t.Fatal(err)
	}
	if r.res.Correct || !failedCheck(r.res, "acknowledged") {
		t.Errorf("a daemon that forgets acknowledged writes must fail the run; checks: %q", r.res.Checks)
	}
}

func TestFailedOperationFailsTheRun(t *testing.T) {
	r := smokeRunner(t, "serve-read")
	// Every fifth search is shed with a 429, as an overloaded daemon would.
	var n atomic.Int64
	r.spawn = fakeDaemon(t, r, func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if strings.HasSuffix(req.URL.Path, "/search") && n.Add(1)%5 == 0 {
				http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
				return
			}
			inner.ServeHTTP(w, req)
		})
	})
	if err := r.readStage(); err != nil {
		t.Fatal(err)
	}
	if _, failed := r.res.totals(); failed == 0 {
		t.Error("a 429 must count as a failed operation")
	}
}
