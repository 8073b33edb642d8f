package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hsprofiler/internal/osn"
	"hsprofiler/internal/osnhttp"
	"hsprofiler/internal/worldgen"
)

// TestOpenLoopDropsCountAsErrors: an open loop whose arrivals outpace a
// slow server at an inflight cap of 1 drops most of them, and the overall
// error rate must say so instead of reporting a clean run.
func TestOpenLoopDropsCountAsErrors(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	api := osnhttp.NewServer(osn.NewPlatform(w, osn.Facebook(), osn.Config{}))
	slow := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/api/v1/profile") || strings.HasPrefix(r.URL.Path, "/api/v1/friends") {
			time.Sleep(5 * time.Millisecond)
		}
		api.ServeHTTP(rw, r)
	})
	srv := httptest.NewServer(slow)
	defer srv.Close()
	rep, err := Run(context.Background(), Config{
		BaseURL:     srv.URL,
		Rate:        1000,
		Duration:    300 * time.Millisecond,
		Mix:         Mix{Profile: 1, Friends: 1},
		Accounts:    1,
		Targets:     16,
		SchoolID:    -1,
		MaxInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped == 0 {
		t.Fatalf("no arrivals dropped at %d requests over %.1fs; the server is not slow enough", rep.Requests, rep.Seconds)
	}
	if floor := float64(rep.Dropped) / float64(rep.Requests+rep.Dropped); rep.Overall.ErrorRate < floor {
		t.Fatalf("overall error rate %.3f with %d of %d arrivals dropped, want at least %.3f",
			rep.Overall.ErrorRate, rep.Dropped, rep.Requests+rep.Dropped, floor)
	}
}
