package main

import (
	"encoding/json"
	"flag"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"

	"spatialhist/internal/dataset"
	"spatialhist/internal/geobrowse"
	"spatialhist/internal/grid"
	"spatialhist/internal/shard"
)

func TestParseAreas(t *testing.T) {
	got, err := parseAreas("1, 9,100")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 9 || got[2] != 100 {
		t.Fatalf("parseAreas = %v, %v", got, err)
	}
	for _, bad := range []string{"1,x", "", "1,,9"} {
		if _, err := parseAreas(bad); err == nil {
			t.Errorf("area list %q must error", bad)
		}
	}
}

func TestBuildEstimator(t *testing.T) {
	d := dataset.SpSkew(200, 1)
	g := grid.New(d.Extent, 36, 18)
	for algo, name := range map[string]string{
		"seuler": "S-EulerApprox",
		"euler":  "EulerApprox",
		"meuler": "M-EulerApprox(2)",
	} {
		est, err := buildEstimator(algo, "1,9", g, d)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if est.Name() != name || est.Count() != 200 {
			t.Errorf("%s: %s/%d", algo, est.Name(), est.Count())
		}
	}
	if _, err := buildEstimator("bogus", "1", g, d); err == nil {
		t.Error("unknown algorithm must error")
	}
	if _, err := buildEstimator("meuler", "1,x", g, d); err == nil {
		t.Error("bad areas must error")
	}
	if _, err := buildEstimator("meuler", "9,1", g, d); err == nil {
		t.Error("invalid thresholds must error")
	}
}

// TestAssembleRefusesBadCommandLines: every flag combination main used to
// die on inside a mode, every flag a mode would silently drop and every
// negative count is an error assemble returns before serving anything. A
// dropped flag's or a negative count's error must name the flag, so a case
// cannot pass for another reason (a dataset the flags never let it build,
// say).
func TestAssembleRefusesBadCommandLines(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	save := filepath.Join(t.TempDir(), "s.bin")
	for _, tc := range []struct {
		args []string
		want string // the start of the error, naming the flag; "" for any error
	}{
		{[]string{"-live", "-load", "summary.bin"}, ""},
		{[]string{"-shards", "2"}, ""},
		{[]string{"-load", filepath.Join(t.TempDir(), "missing.bin")}, ""},
		{[]string{"-file", filepath.Join(t.TempDir(), "missing.bin")}, ""},
		{[]string{"-dataset", "uni"}, ""},
		{[]string{"-algo", "bogus"}, ""},
		{[]string{"-algo", "meuler", "-areas", "9,1"}, ""},
		{[]string{"-live", "-algo", "bogus"}, ""},
		{[]string{"-live", "-areas", "1,x"}, ""},
		{[]string{"-live", "-shards", "100000", "-gw", "8"}, ""},
		{[]string{"-save", filepath.Join(t.TempDir(), "no", "such", "dir", "s.bin")}, ""},
		{[]string{"-live", "-shards", "-3"}, "-shards must not be negative"},
		{[]string{"-max-inflight", "-5"}, "-max-inflight must not be negative"},
		{[]string{"-n", "-1"}, "-n must not be negative"},
		{[]string{"-gw", "0"}, "-gw must be positive"},
		{[]string{"-gh", "-3"}, "-gh must be positive"},
		{[]string{"-live", "-shards", "2", "-cache", "8"}, "-cache would be ignored"},
		{[]string{"-live", "-save", save}, "-save would be ignored"},
		{[]string{"-live", "-shards", "2", "-save", save}, "-save would be ignored"},
		{[]string{"-wal", filepath.Join(t.TempDir(), "store.wal")}, "-wal would be ignored"},
		{[]string{"-checkpoint", filepath.Join(t.TempDir(), "store.ckpt")}, "-checkpoint would be ignored"},
		{[]string{"-sync-every", "1"}, "-sync-every would be ignored"},
		{[]string{"-rebuild-interval", "1s"}, "-rebuild-interval would be ignored"},
		{[]string{"-load", "summary.bin", "-rebuild-every", "50"}, "-rebuild-every would be ignored"},
	} {
		nd, err := assemble(parseConfig(t, append([]string{"-n", "50"}, tc.args...)...))
		switch {
		case err == nil:
			t.Errorf("%v: assembled a node", tc.args)
			if nd.close != nil {
				nd.close()
			}
		case !strings.HasPrefix(err.Error(), tc.want):
			t.Errorf("%v: error %q, want %q", tc.args, err, tc.want)
		}
	}
	if _, err := os.Stat(save); !os.IsNotExist(err) {
		t.Errorf("a refused -save wrote %s (stat: %v)", save, err)
	}
}

// TestLiveFlagsTakeEffect: the flags refused without -live are the live
// store's, and with -live they take effect — the journal and the
// checkpoint are written, and a node reopened on them answers with the
// objects the first one acknowledged.
func TestLiveFlagsTakeEffect(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	dir := t.TempDir()
	wal, ckpt := filepath.Join(dir, "store.wal"), filepath.Join(dir, "store.ckpt")
	cfg := parseConfig(t, "-report", "0", "-live", "-n", "200", "-wal", wal, "-checkpoint", ckpt,
		"-sync-every", "1", "-rebuild-every", "5", "-rebuild-interval", "1h")
	open := func() node {
		nd, err := assemble(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return nd
	}
	objects := func(nd node) int64 {
		var info geobrowse.Info
		if err := json.Unmarshal(serve(nd, "GET", "/api/info", "").Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		return info.Objects
	}

	nd := open()
	if rec := serve(nd, "POST", "/api/ingest?flush=1", `{"rects":[[10,10,20,20]]}`); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	want := objects(nd)
	if err := nd.close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{wal, ckpt} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Fatalf("%s after close: %v", f, err)
		}
	}
	nd = open()
	defer nd.close()
	if got := objects(nd); got != want || want != 201 {
		t.Fatalf("reopened node answers %d objects, the first acknowledged %d (want 201)", got, want)
	}
}

// TestRetiredFlagsAreErrors: flags whose settings the code now makes from
// the data, those of the deleted remote topology (a coordinator over shard
// nodes, a replica of a remote leader) and that of the deleted ε overview
// tier are gone, and passing one fails the command line instead of being
// ignored.
func TestRetiredFlagsAreErrors(t *testing.T) {
	for _, args := range [][]string{{"-rebuild-crossover", "-1"}, {"-pack-cold", "3"}, {"-pyramid-min-grid", "8"}, {"-workers", "2"},
		{"-coordinator", "http://localhost:1"}, {"-replica-of", "http://localhost:1"}, {"-max-lag-bytes", "0"},
		{"-probe-interval", "10ms"}, {"-poll-interval", "5ms"}, {"-overview-epsilon", "0.05"}} {
		t.Run(args[0], func(t *testing.T) {
			fs := flag.NewFlagSet("geobrowsed", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var cfg config
			cfg.register(fs)
			if err := fs.Parse(append([]string{"-live"}, args...)); err == nil || !strings.Contains(err.Error(), args[0][1:]) {
				t.Fatalf("%v parsed (err %v), want an undefined-flag error", args, err)
			}
		})
	}
}

// flagDocs are the documents whose fenced blocks start geobrowsed.
var flagDocs = []string{"README.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}

// TestDocsNameRegisteredFlags keeps the documents starting geobrowsed only
// with flags it has: every -flag of a geobrowsed command line in a fenced
// block of flagDocs — continuation lines joined, quoted strings and #
// comments skipped — is registered. Prose may still name a retired flag.
func TestDocsNameRegisteredFlags(t *testing.T) {
	fs := flag.NewFlagSet("geobrowsed", flag.ContinueOnError)
	var cfg config
	cfg.register(fs)
	fence := regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	lines := 0
	for _, doc := range flagDocs {
		t.Run(filepath.Base(doc), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", doc))
			if err != nil {
				t.Fatal(err)
			}
			for _, block := range fence.FindAllString(string(data), -1) {
				for _, line := range strings.Split(strings.ReplaceAll(block, "\\\n", " "), "\n") {
					for _, cmd := range shellCommands(line) {
						args, ok := geobrowsedArgs(cmd)
						if !ok {
							continue
						}
						lines++
						for _, a := range args {
							name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
							if a[0] != '-' || name == "" || !unicode.IsLetter(rune(name[0])) {
								continue // an operand or a negative value
							}
							if fs.Lookup(name) == nil && name != "h" && name != "help" {
								t.Errorf("%s starts geobrowsed with -%s, which it does not register: %s", doc, name, strings.TrimSpace(line))
							}
						}
					}
				}
			}
		})
	}
	if lines == 0 {
		t.Fatal("no geobrowsed command line found in the documents")
	}
	t.Logf("%d geobrowsed command lines checked", lines)
}

// geobrowsedArgs returns the arguments of a command that starts geobrowsed
// — its binary, or go run of its package.
func geobrowsedArgs(cmd []string) ([]string, bool) {
	if len(cmd) > 2 && cmd[0] == "go" && cmd[1] == "run" {
		cmd = cmd[2:]
	}
	if len(cmd) == 0 || path.Base(cmd[0]) != "geobrowsed" {
		return nil, false
	}
	return cmd[1:], true
}

// shellCommands splits one shell line into its commands' words: ; & and |
// end a command, quoted text is dropped, and # begins a comment.
func shellCommands(line string) [][]string {
	var cmds [][]string
	var cmd []string
	var word strings.Builder
	endWord := func() {
		if word.Len() > 0 {
			cmd = append(cmd, word.String())
			word.Reset()
		}
	}
	endCmd := func() {
		endWord()
		if len(cmd) > 0 {
			cmds = append(cmds, cmd)
			cmd = nil
		}
	}
	var quote rune
	for _, c := range line {
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '#' && word.Len() == 0:
			endCmd()
			return cmds
		case c == ';' || c == '&' || c == '|':
			endCmd()
		case unicode.IsSpace(c):
			endWord()
		default:
			word.WriteRune(c)
		}
	}
	endCmd()
	return cmds
}

// TestShellCommandsFindGeobrowsedArgs pins the line splitting that
// TestDocsNameRegisteredFlags relies on: a flag hidden by a misparse would
// make that guard pass without looking.
func TestShellCommandsFindGeobrowsedArgs(t *testing.T) {
	for _, tc := range []struct {
		name, line string
		want       [][]string // the arguments of each geobrowsed command
	}{
		{"binary path", "/tmp/geobrowsed -live -n 20", [][]string{{"-live", "-n", "20"}}},
		{"go run", "go run ./cmd/geobrowsed -dataset adl", [][]string{{"-dataset", "adl"}}},
		{"after cd and &&", "cd /tmp && ./geobrowsed -wal store.wal &", [][]string{{"-wal", "store.wal"}}},
		{"two commands", "geobrowsed -a; geobrowsed -b | head", [][]string{{"-a"}, {"-b"}}},
		{"quoted text dropped", `geobrowsed -areas "1;9 | 100" -n 5`, [][]string{{"-areas", "-n", "5"}}},
		{"comment ends the line", "geobrowsed -n 5 # not -tenants", [][]string{{"-n", "5"}}},
		{"hash inside a word kept", "geobrowsed -file a#b", [][]string{{"-file", "a#b"}}},
		{"other commands ignored", "curl -s localhost:18080/metrics | grep -c geobrowsed", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [][]string
			for _, cmd := range shellCommands(tc.line) {
				if args, ok := geobrowsedArgs(cmd); ok {
					got = append(got, args)
				}
			}
			if !slices.EqualFunc(got, tc.want, slices.Equal) {
				t.Fatalf("%q: geobrowsed arguments %q, want %q", tc.line, got, tc.want)
			}
		})
	}
}

// heldWriter is a ResponseWriter whose first Write blocks until release is
// closed, signalling held as it starts to wait: the handler writing through
// it keeps whatever it holds — an admission slot — until then.
type heldWriter struct {
	h       http.Header
	held    chan struct{}
	release chan struct{}
}

func (w *heldWriter) Header() http.Header { return w.h }
func (w *heldWriter) WriteHeader(int)     {}
func (w *heldWriter) Write(p []byte) (int, error) {
	if w.held != nil {
		close(w.held)
		w.held = nil
		<-w.release
	}
	return len(p), nil
}

// TestCoordinatorFrontHonoursServingFlags: an in-process coordinator front
// is assembled like any other, so the admission limiter the command line
// sizes is its own — a second browse map is shed with 429 while the one
// slot is held.
func TestCoordinatorFrontHonoursServingFlags(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) }) // after the node closes
	nd := assembleArgs(t, "-live", "-shards", "2", "-dataset", "adl", "-n", "2000",
		"-max-inflight", "1", "-shed-after", "10ms")
	const browse = "/api/browse?x1=0&y1=0&x2=360&y2=180&cols=12&rows=9"

	hold := &heldWriter{h: http.Header{}, held: make(chan struct{}), release: make(chan struct{})}
	held := hold.held
	done := make(chan struct{})
	go func() {
		defer close(done)
		nd.gb.ServeHTTP(hold, httptest.NewRequest("GET", browse, nil))
	}()
	<-held // the first map is writing its body, its slot held
	rec := httptest.NewRecorder()
	nd.gb.ServeHTTP(rec, httptest.NewRequest("GET", browse, nil))
	close(hold.release)
	<-done
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Errorf("browse while the one slot is held: %d (Retry-After %q), want 429",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	rec = httptest.NewRecorder()
	nd.gb.ServeHTTP(rec, httptest.NewRequest("GET", browse, nil))
	if rec.Code != http.StatusOK {
		t.Errorf("browse once the slot is free: %d %s", rec.Code, rec.Body.String())
	}
}

// shardedReads are the reads TestShardedAnswersAsSingle holds a sharded
// node to: the 12×9 grid CI compares, level-aligned, banded and unaligned
// maps, point queries and drill-downs, all of which cross the two shards'
// column bands.
var shardedReads = []struct{ name, target string }{
	{"browse-12x9", "/api/browse?x1=0&y1=0&x2=360&y2=180&cols=12&rows=9"},
	{"browse-36x18", "/api/browse?x1=0&y1=0&x2=360&y2=180&cols=36&rows=18"},
	{"browse-90x90", "/api/browse?x1=0&y1=0&x2=360&y2=180&cols=90&rows=90"},
	{"browse-unaligned", "/api/browse?x1=1&y1=1&x2=91&y2=46&cols=9&rows=5"},
	{"query-world", "/api/query?x1=0&y1=0&x2=360&y2=180"},
	{"query-block", "/api/query?x1=128&y1=64&x2=192&y2=128"},
	{"drill-overlap", "/api/drill?x1=0&y1=0&x2=360&y2=180&depth=2&hot=4&relation=overlap"},
	{"drill-contained", "/api/drill?x1=90&y1=45&x2=270&y2=135&depth=3&hot=50&relation=contained"},
}

// shardedIngest is the one fixed batch CI posts to both nodes: rects in
// both column bands.
const shardedIngest = `{"rects":[[10,10,20,20],[40,60,55,70],[100,20,130,45],[170,150,179,170],` +
	`[185,10,200,30],[220,90,240,100],[300,40,330,80],[350,160,359,179]]}`

// parseConfig parses a geobrowsed command line, as main does.
func parseConfig(t *testing.T, args ...string) config {
	t.Helper()
	fs := flag.NewFlagSet("geobrowsed", flag.ContinueOnError)
	var cfg config
	cfg.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// assembleArgs assembles geobrowsed from a command line, as main would,
// and closes the node when the test ends.
func assembleArgs(t *testing.T, args ...string) node {
	t.Helper()
	nd, err := assemble(parseConfig(t, append([]string{"-report", "0"}, args...)...))
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	t.Cleanup(func() {
		if err := nd.close(); err != nil {
			t.Errorf("%v: closing: %v", args, err)
		}
	})
	return nd
}

// serve answers one request through the node's front, in process.
func serve(nd node, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	nd.gb.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// TestShardedAnswersAsSingle is CI's sharded-vs-single spot check in
// process: a -live -shards 2 node and a -live node assembled from command
// lines over the same dataset answer every read with the same bytes,
// before and after the same batch is ingested into both. Raw sums merge by
// addition, so the shards together answer bit for bit as one store holding
// everything.
func TestShardedAnswersAsSingle(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) }) // after the nodes close
	data := []string{"-live", "-dataset", "adl", "-n", "20000", "-algo", "meuler"}
	sharded := assembleArgs(t, append(data, "-shards", "2")...)
	single := assembleArgs(t, data...)

	t.Run("shards", func(t *testing.T) {
		rec := serve(sharded, "GET", "/api/shards", "")
		var top shard.TopologyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &top); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("/api/shards: %d %s (%v)", rec.Code, rec.Body, err)
		}
		if len(top.Shards) != 2 {
			t.Fatalf("%d shards, want 2: %s", len(top.Shards), rec.Body)
		}
		if w, e := top.Shards[0].Band, top.Shards[1].Band; w[0] != 0 || w[1]+1 != e[0] || e[1] != 359 {
			t.Errorf("bands %v and %v are not disjoint and covering columns 0-359", w, e)
		}
	})
	sameReads := func(t *testing.T) {
		for _, r := range shardedReads {
			t.Run(r.name, func(t *testing.T) {
				got, want := serve(sharded, "GET", r.target, ""), serve(single, "GET", r.target, "")
				if got.Code != http.StatusOK || want.Code != http.StatusOK {
					t.Fatalf("status %d, single %d (%s vs %s)", got.Code, want.Code, got.Body, want.Body)
				}
				if got.Body.String() != want.Body.String() {
					t.Fatalf("bodies differ:\n sharded %s\n single  %s", got.Body, want.Body)
				}
			})
		}
	}
	t.Run("before-ingest", sameReads)
	t.Run("ingest", func(t *testing.T) {
		for name, nd := range map[string]node{"sharded": sharded, "single": single} {
			rec := serve(nd, "POST", "/api/ingest?flush=1", shardedIngest)
			var res geobrowse.MutationResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &res); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("%s ingest: %d %s (%v)", name, rec.Code, rec.Body, err)
			}
			if res.Applied != 8 {
				t.Fatalf("%s applied %d of 8: %s", name, res.Applied, rec.Body)
			}
		}
	})
	t.Run("after-ingest", sameReads)
}
