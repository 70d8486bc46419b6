package serve

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// The shutdown sequence both binaries run: cancelled with a query in
// flight, Run flips /readyz from 200 to 503 "draining" while the listener
// is still up, closes the listener once the notice is over, lets the
// in-flight query finish, and only then returns nil.
func TestRunDrainsInFlightRequest(t *testing.T) {
	srv := newTestServer(testStore(), time.Second)
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/query" {
			close(entered)
			<-release
		}
		srv.ServeHTTP(w, r)
	})
	draining := make(chan struct{})
	setDraining := func(v bool) {
		srv.SetDraining(v)
		close(draining)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- Run(ctx, ln, h, setDraining, 500*time.Millisecond, 5*time.Second) }()

	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	readyz := func() (int, ReadyResponse) {
		t.Helper()
		resp, err := hc.Get("http://" + addr + "/readyz")
		if err != nil {
			t.Fatalf("GET /readyz: %v", err)
		}
		defer resp.Body.Close()
		var rr ReadyResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatalf("decode /readyz: %v", err)
		}
		return resp.StatusCode, rr
	}
	if code, rr := readyz(); code != http.StatusOK {
		t.Fatalf("readyz before cancel = %d %+v, want 200", code, rr)
	}

	type reply struct {
		code int
		resp QueryResponse
		err  error
	}
	inflight := make(chan reply, 1)
	go func() {
		resp, err := hc.Post("http://"+addr+"/query", "application/json",
			strings.NewReader(`{"patterns": ["?p kb:founded ?c"]}`))
		if err != nil {
			inflight <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		r := reply{code: resp.StatusCode}
		r.err = json.NewDecoder(resp.Body).Decode(&r.resp)
		inflight <- r
	}()
	<-entered
	cancel()

	<-draining
	if code, rr := readyz(); code != http.StatusServiceUnavailable || rr.Error != "draining" {
		t.Fatalf("readyz during the notice = %d %+v, want 503 draining", code, rr)
	}

	// Release the query only once the listener is gone, so it completes
	// inside a Shutdown that is already waiting for it.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting 5s after cancel")
		}
	}
	select {
	case err := <-done:
		t.Fatalf("Run returned %v with a query still in flight", err)
	default:
	}
	close(release)
	if r := <-inflight; r.err != nil || r.code != http.StatusOK || r.resp.Count != 3 {
		t.Fatalf("in-flight query = %d, count %d, err %v; want 200, 3, nil", r.code, r.resp.Count, r.err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run = %v, want nil after a clean drain", err)
	}
}
