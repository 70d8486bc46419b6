package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// sample is one request as its client saw it.
type sample struct {
	id   int
	lat  time.Duration
	done time.Time // when the reply had been read and checked
	err  error     // transport error, non-200, timeout, or an answer the oracle rejects
}

// caller is one closed-loop client: one keep-alive connection, the next
// request sent only after the previous reply has been read and checked.
type caller struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newCaller() *caller {
	return &caller{hc: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *caller) close() { c.hc.CloseIdleConnections() }

// post sends one /query and returns the reply body (valid until the
// next call) with the latency up to the last byte of it.
func (c *caller) post(ctx context.Context, base string, q *query) ([]byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", bytes.NewReader(q.body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, time.Since(t0), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), lat, nil
}

// ask sends one query and checks the reply against the oracle.
func (c *caller) ask(ctx context.Context, base string, orc *oracle, q *query) sample {
	body, lat, err := c.post(ctx, base, q)
	_, err = orc.judgeReply(q, body, err)
	return sample{id: q.id, lat: lat, done: time.Now(), err: err}
}

// drive runs the closed loop: each client sends what next(client)
// yields until it reports false. It returns each client's samples in
// the order it sent them.
func drive(ctx context.Context, base string, orc *oracle, next func(client int) (int, bool)) [][]sample {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newCaller()
			defer cl.close()
			for ctx.Err() == nil {
				id, ok := next(c)
				if !ok {
					return
				}
				per[c] = append(per[c], cl.ask(ctx, base, orc, orc.sp.all[id]))
			}
		}(c)
	}
	wg.Wait()
	return per
}

// flatten joins the clients' samples.
func flatten(per [][]sample) []sample {
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// driveLists sends fixed per-client id lists (warm-up, replays).
func driveLists(ctx context.Context, base string, orc *oracle, lists [][]int) []sample {
	pos := make([]int, clients)
	return flatten(drive(ctx, base, orc, func(c int) (int, bool) {
		if c >= len(lists) || pos[c] >= len(lists[c]) {
			return 0, false
		}
		pos[c]++
		return lists[c][pos[c]-1], true
	}))
}

// driveFor sends each client's sequence for the given window.
func driveFor(ctx context.Context, base string, orc *oracle, seqs []*sequence, window time.Duration) [][]sample {
	deadline := time.Now().Add(window)
	return drive(ctx, base, orc, func(c int) (int, bool) {
		if !time.Now().Before(deadline) {
			return 0, false
		}
		return seqs[c].next(), true
	})
}

// tally accumulates attempted and failed operations over a run and
// keeps the first few failures for the report.
type tally struct {
	attempted int
	failed    int
	offenders []string
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.offenders) < 3 {
			t.offenders = append(t.offenders, err.Error())
		}
	}
}

func (t *tally) addSamples(ss []sample) {
	for _, s := range ss {
		t.add(s.err)
	}
}
