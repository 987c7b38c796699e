package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"syscall"
	"time"

	"spatialhist/internal/core"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/grid"
)

// conn is one keep-alive HTTP connection to the child. A workload never
// opens more than two: the load is sized for a two-core machine.
type conn struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{
		base: base,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do issues r. The body is valid until the next call. headers is when the
// response status arrived, done when the body had been read to its end.
func (c *conn) do(r *request) (status int, body []byte, headers, done time.Time, err error) {
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.path, rd)
	if err != nil {
		return 0, nil, headers, done, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	headers = time.Now()
	if err != nil {
		return 0, nil, headers, headers, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), headers, time.Now(), err
}

// getJSON fetches path and decodes the JSON answer into out.
func (c *conn) getJSON(path string, out any) error {
	status, body, _, _, err := c.do(&request{method: "GET", path: path})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

// verifier checks decoded answers against an in-process estimator built
// from the same dataset file the child was given.
type verifier struct {
	g   *grid.Grid
	est core.Estimator // nil while the child's data is changing: shape checks only
	// corrupt makes every expected answer wrong: the test hook proving that
	// a mismatch is counted and fails the command.
	corrupt bool
}

func (v *verifier) check(r *request, body []byte) error {
	switch r.kind {
	case kindBrowse:
		var got geobrowse.BrowseResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("%s: %v", r.path, err)
		}
		if got.Cols != r.cols || got.Rows != r.rows || len(got.Tiles) != r.cols*r.rows {
			return fmt.Errorf("%s: answered %dx%d with %d tiles", r.path, got.Cols, got.Rows, len(got.Tiles))
		}
		if v.est == nil {
			return nil
		}
		ests, err := core.EstimateGrid(v.est, r.span, r.cols, r.rows)
		if err != nil {
			return fmt.Errorf("%s: oracle: %v", r.path, err)
		}
		want := geobrowse.TileEstimates(v.g, r.span, r.cols, r.rows, ests)
		if v.corrupt {
			want[0].Disjoint++
		}
		for k := range want {
			if got.Tiles[k] != want[k] {
				return fmt.Errorf("%s: tile %d is %+v, want %+v", r.path, k, got.Tiles[k], want[k])
			}
		}
	case kindQuery:
		var got geobrowse.TileEstimate
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("%s: %v", r.path, err)
		}
		if v.est == nil {
			return nil
		}
		want := geobrowse.NewTileEstimate(v.g, r.span, v.est.Estimate(r.span))
		if v.corrupt {
			want.Disjoint++
		}
		if got != want {
			return fmt.Errorf("%s: answered %+v, want %+v", r.path, got, want)
		}
	case kindDrill:
		var got geobrowse.DrillResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("%s: %v", r.path, err)
		}
		if got.Relation != "overlap" || len(got.Tiles) == 0 {
			return fmt.Errorf("%s: answered relation %q with %d tiles", r.path, got.Relation, len(got.Tiles))
		}
	}
	return nil
}

// checkEvery is the answer-sampling period: every 50th browse and query
// answer of a connection is decoded and compared.
const checkEvery = 50

// tally is what one connection measured.
type tally struct {
	lat     [numKinds]latencies // per kind, from the due (open loop) or send (closed loop) time
	publish latencies           // mutation batches acknowledged after a publish (flush=1)
	late    latencies           // open loop: how far behind schedule each send ran

	attempted, failed int64
	tiles, bodyBytes  int64
	inserted, deleted int64 // mutations the child acknowledged as applied
	firstErr          error

	pending []pendingCheck // sampled answers, verified after the timed window
}

type pendingCheck struct {
	req  request
	body []byte
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	for k := range t.lat {
		t.lat[k].ns = append(t.lat[k].ns, o.lat[k].ns...)
	}
	t.publish.ns = append(t.publish.ns, o.publish.ns...)
	t.late.ns = append(t.late.ns, o.late.ns...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.tiles += o.tiles
	t.bodyBytes += o.bodyBytes
	t.inserted += o.inserted
	t.deleted += o.deleted
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// verifyPending runs the deferred answer checks; each mismatch is a failed
// operation.
func (t *tally) verifyPending(v *verifier) {
	for i := range t.pending {
		if err := v.check(&t.pending[i].req, t.pending[i].body); err != nil {
			t.fail(err)
		}
	}
	t.pending = nil
}

// driveOpts describes one connection's share of a workload.
type driveOpts struct {
	id   int
	conn *conn
	gen  generator
	dur  time.Duration
	// rate > 0 makes the loop open: request k is due at start + k/rate
	// whatever the answers do, and its latency is timed from that due time.
	// 0 is a closed loop: the next request leaves when the answer is in.
	rate float64
	v    *verifier
	// spans, when set, receives client-side spans and answers are checked
	// inline (inside a client.verify span) instead of after the window.
	spans *spanLog
}

// drive runs one connection for o.dur and returns what it measured.
func drive(o driveOpts) *tally {
	t := &tally{}
	start := time.Now()
	end := start.Add(o.dur)
	var interval time.Duration
	if o.rate > 0 {
		interval = time.Duration(float64(time.Second) / o.rate)
	}
	sampled := 0
	for k := 0; ; k++ {
		buildStart := time.Now()
		due := buildStart
		if interval > 0 {
			due = start.Add(time.Duration(k) * interval)
		}
		if !due.Before(end) {
			break // before the stream advances: every generated request is sent
		}
		req := o.gen.next()
		built := time.Now()
		sent, t0 := built, built
		if interval > 0 {
			sleepUntil(due)
			sent = time.Now()
			t.late.add(sent.Sub(due))
			t0 = due
		}
		status, body, headers, done, err := o.conn.do(&req)
		t.attempted++
		if o.spans != nil {
			o.spans.add("client.build", rid(o.id, k), "", buildStart, built)
			o.spans.add("geobrowsed.roundtrip", rid(o.id, k), "", sent, headers)
			o.spans.add("client.read", rid(o.id, k), "", headers, done)
		}
		switch {
		case err != nil:
			t.fail(fmt.Errorf("%s: %v", req.path, err))
			continue
		case status/100 != 2:
			t.fail(fmt.Errorf("%s: status %d: %s", req.path, status, bytes.TrimSpace(body)))
			continue
		}
		lat := done.Sub(t0)
		t.bodyBytes += int64(len(body))
		t.tiles += int64(req.tiles())
		switch req.kind {
		case kindIngest, kindDelete:
			var ack geobrowse.MutationResponse
			if err := json.Unmarshal(body, &ack); err != nil || ack.Applied != len(req.rects) || ack.Rejected != 0 {
				t.fail(fmt.Errorf("%s: acknowledged %s, want %d applied", req.path, bytes.TrimSpace(body), len(req.rects)))
				continue
			}
			if req.kind == kindIngest {
				t.inserted += int64(ack.Applied)
			} else {
				t.deleted += int64(ack.Applied)
			}
			if req.flush {
				t.publish.add(lat)
			} else {
				t.lat[req.kind].add(lat)
			}
			continue
		}
		t.lat[req.kind].add(lat)
		if req.kind == kindDrill {
			continue
		}
		if sampled++; sampled%checkEvery != 0 {
			continue
		}
		if o.spans == nil {
			t.pending = append(t.pending, pendingCheck{req, append([]byte(nil), body...)})
			continue
		}
		vs := time.Now()
		if err := o.v.check(&req, body); err != nil {
			t.fail(err)
		}
		o.spans.add("client.verify", rid(o.id, k), "", vs, time.Now())
	}
	return t
}

// rid is the identifier the spans of one request share.
func rid(conn, k int) int64 { return int64(conn)<<32 | int64(k) }

// sleepUntil blocks to within a quarter of a millisecond of t and spins the
// rest. It sleeps in the kernel, not with time.Sleep: an idle Go process
// waits for its timers with a millisecond-granular poll, which would make
// every send of a 750/s schedule up to a millisecond late — and in an open
// loop that lateness is charged to the child as latency.
func sleepUntil(t time.Time) {
	const spin = 250 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // woken early by a signal: the spin below covers it
	}
	for time.Now().Before(t) {
	}
}
