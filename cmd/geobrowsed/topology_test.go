package main

import (
	"encoding/json"
	"flag"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spatialhist/internal/dataset"
	"spatialhist/internal/live"
)

// topologyReads are the reads the topology test holds the coordinator and
// the replica to, named for the subtests: the 12×9 grid the CI topology job
// compares, level-aligned, banded and unaligned maps, point queries and
// drill-downs, all of which cross the two shards' column bands.
var topologyReads = []struct{ name, target string }{
	{"browse-12x9", "/api/browse?x1=0&y1=0&x2=360&y2=180&cols=12&rows=9"},
	{"browse-36x18", "/api/browse?x1=0&y1=0&x2=360&y2=180&cols=36&rows=18"},
	{"browse-90x90", "/api/browse?x1=0&y1=0&x2=360&y2=180&cols=90&rows=90"},
	{"browse-unaligned", "/api/browse?x1=1&y1=1&x2=91&y2=46&cols=9&rows=5"},
	{"query-world", "/api/query?x1=0&y1=0&x2=360&y2=180"},
	{"query-block", "/api/query?x1=128&y1=64&x2=192&y2=128"},
	{"drill-overlap", "/api/drill?x1=0&y1=0&x2=360&y2=180&depth=2&hot=4&relation=overlap"},
	{"drill-contained", "/api/drill?x1=90&y1=45&x2=270&y2=135&depth=3&hot=50&relation=contained"},
}

// topologyIngest is the one fixed batch the CI topology job posts through
// the coordinator: rects in both column bands.
const topologyIngest = `{"rects":[[10,10,20,20],[40,60,55,70],[100,20,130,45],[170,150,179,170],` +
	`[185,10,200,30],[220,90,240,100],[300,40,330,80],[350,160,359,179]]}`

// serveNode assembles geobrowsed from a command line, as main would, and
// serves it over HTTP until the test ends.
func serveNode(t *testing.T, args ...string) *httptest.Server {
	t.Helper()
	fs := flag.NewFlagSet("geobrowsed", flag.ContinueOnError)
	var cfg config
	cfg.register(fs)
	if err := fs.Parse(append([]string{"-report", "0"}, args...)); err != nil {
		t.Fatal(err)
	}
	nd, err := assemble(cfg)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	srv := httptest.NewServer(nd.handler)
	t.Cleanup(func() {
		srv.Close()
		if nd.close != nil {
			if err := nd.close(); err != nil {
				t.Errorf("%v: closing: %v", args, err)
			}
		}
	})
	return srv
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func httpPost(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func storeStatus(t *testing.T, base string) live.Status {
	t.Helper()
	code, body := httpGet(t, base+"/api/store/status")
	if code != http.StatusOK {
		t.Fatalf("%s store status: %d %s", base, code, body)
	}
	var st live.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// sameReads holds every topology read of got to the bytes of want, one
// subtest per read.
func sameReads(t *testing.T, got, want string) {
	for _, r := range topologyReads {
		t.Run(r.name, func(t *testing.T) {
			gc, gb := httpGet(t, got+r.target)
			wc, wb := httpGet(t, want+r.target)
			if gc != http.StatusOK || wc != http.StatusOK {
				t.Fatalf("status %d, want %d from the reference (%s vs %s)", gc, wc, gb, wb)
			}
			if string(gb) != string(wb) {
				t.Fatalf("bodies differ:\n got  %s\n want %s", gb, wb)
			}
		})
	}
}

// TestTopology is the CI topology job in-process: a 2-shard + 1-replica
// topology assembled from geobrowsed command lines over real HTTP. shard0
// owns a dataset file and journals to a WAL, shard1 starts empty over the
// same 360×180 space, a replica tails shard0, and a coordinator
// scatter-gathers over both shards with the replica as shard0's read
// backend. Before any ingest the coordinator answers as the owning store;
// after one batch through the coordinator it answers as a single store fed
// the same stream, and the caught-up replica as its leader.
func TestTopology(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) }) // after the nodes close
	dir := t.TempDir()
	d, err := dataset.Generate("adl", 20_000, 2002)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "adl.bin")
	if err := d.Save(file); err != nil {
		t.Fatal(err)
	}

	shard0 := serveNode(t, "-live", "-file", file, "-algo", "meuler",
		"-wal", filepath.Join(dir, "shard0.wal"), "-checkpoint", filepath.Join(dir, "shard0.ckpt"))
	shard1 := serveNode(t, "-live", "-dataset", "adl", "-n", "0", "-algo", "meuler")
	replica := serveNode(t, "-replica-of", shard0.URL, "-checkpoint", filepath.Join(dir, "replica.ckpt"),
		"-poll-interval", "5ms")
	coord := serveNode(t, "-coordinator", shard0.URL+","+replica.URL+";"+shard1.URL,
		"-probe-interval", "10ms")
	// The reference single store: the same file, fed the same batch.
	single := serveNode(t, "-live", "-file", file, "-algo", "meuler")

	deadline := time.Now().Add(30 * time.Second)
	t.Run("shards", func(t *testing.T) {
		for {
			code, body := httpGet(t, coord.URL+"/api/shards")
			var top struct {
				Shards []struct {
					Backends []struct {
						Alive bool `json:"alive"`
					} `json:"backends"`
				} `json:"shards"`
			}
			if code != http.StatusOK {
				t.Fatalf("/api/shards: %d %s", code, body)
			}
			if err := json.Unmarshal(body, &top); err != nil {
				t.Fatal(err)
			}
			backends, alive := 0, 0
			for _, s := range top.Shards {
				for _, b := range s.Backends {
					backends++
					if b.Alive {
						alive++
					}
				}
			}
			if len(top.Shards) != 2 || backends != 3 {
				t.Fatalf("topology has %d shards and %d backends, want 2 and 3: %s", len(top.Shards), backends, body)
			}
			if alive == backends {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d backends alive: %s", alive, backends, body)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})

	// shard1 is empty, so the merged answer is the owner's own.
	t.Run("coordinator-vs-owner", func(t *testing.T) { sameReads(t, coord.URL, shard0.URL) })

	t.Run("ingest", func(t *testing.T) {
		for _, base := range []string{coord.URL, single.URL} {
			code, body := httpPost(t, base+"/api/ingest?flush=1", topologyIngest)
			var res struct {
				Applied int `json:"applied"`
			}
			if code != http.StatusOK {
				t.Fatalf("%s ingest: %d %s", base, code, body)
			}
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatal(err)
			}
			if res.Applied != 8 {
				t.Fatalf("%s applied %d of 8: %s", base, res.Applied, body)
			}
		}
		if shard1Status := storeStatus(t, shard1.URL); shard1Status.Mutations == 0 {
			t.Fatal("no rect of the batch reached shard1")
		}
	})

	t.Run("replica-catch-up", func(t *testing.T) {
		for {
			lead, rep := storeStatus(t, shard0.URL), storeStatus(t, replica.URL)
			if rep.Mutations > 0 && rep.SnapshotSeq >= lead.AppliedSeq {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica published through seq %d (%d mutations) < leader seq %d",
					rep.SnapshotSeq, rep.Mutations, lead.AppliedSeq)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})

	// The follower the replica serves refuses writes itself: a write it took
	// would silently diverge from the stream it tails.
	t.Run("replica-refuses-writes", func(t *testing.T) {
		before := storeStatus(t, replica.URL).Mutations
		for _, path := range []string{"/api/ingest?flush=1", "/api/delete?flush=1"} {
			code, body := httpPost(t, replica.URL+path, `{"rects":[[10,10,20,20]]}`)
			if code != http.StatusForbidden || string(body) != "read-only replica: send writes to the leader\n" {
				t.Errorf("POST %s to the replica: %d %q, want 403 and the read-only body", path, code, body)
			}
		}
		if after := storeStatus(t, replica.URL).Mutations; after != before {
			t.Errorf("replica mutations %d -> %d across two refused writes", before, after)
		}
	})

	// Raw sums merge by addition, so the shards together answer bit for bit
	// as one store holding everything.
	t.Run("coordinator-vs-single", func(t *testing.T) { sameReads(t, coord.URL, single.URL) })
	t.Run("replica-vs-leader", func(t *testing.T) { sameReads(t, replica.URL, shard0.URL) })
}
