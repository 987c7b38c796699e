package main

import (
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
	"spatialhist/internal/grid"
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

func TestParseShardSpec(t *testing.T) {
	groups, err := parseShardSpec(" http://a:1 , http://b:2/ ; http://c:3 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("parsed %d shards, want 2", len(groups))
	}
	if got := groups[0].Leader.Name(); got != "http://a:1" {
		t.Errorf("shard 0 leader = %q", got)
	}
	if len(groups[0].Followers) != 1 || groups[0].Followers[0].Name() != "http://b:2" {
		t.Errorf("shard 0 followers = %v", groups[0].Followers)
	}
	if len(groups[1].Followers) != 0 || groups[1].Leader.Name() != "http://c:3" {
		t.Errorf("shard 1 = %+v", groups[1])
	}
	for _, bad := range []string{"", " ; ", "http://a:1,,http://b:2"} {
		if _, err := parseShardSpec(bad); err == nil {
			t.Errorf("spec %q must error", bad)
		}
	}
}

// TestAssembleRefusesBadCommandLines: every flag combination main used to
// die on inside a mode, every flag a mode would silently drop and every
// negative count is an error assemble returns before serving anything. A
// dropped flag's or a negative count's error must name the flag, so a case
// cannot pass for another reason (an unreachable -coordinator, say).
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
		{[]string{"-replica-of", "http://localhost:1", "-live"}, ""},
		{[]string{"-coordinator", "http://localhost:1", "-load", "summary.bin"}, ""},
		{[]string{"-coordinator", " ; "}, ""},
		{[]string{"-replica-of", "http://localhost:1"}, ""}, // no -checkpoint
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
		{[]string{"-live", "-shards", "2", "-cache", "8"}, "-cache would be ignored"},
		{[]string{"-live", "-shards", "2", "-overview-epsilon", "0.05"}, "-overview-epsilon would be ignored"},
		{[]string{"-coordinator", "http://localhost:1", "-cache", "8"}, "-cache would be ignored"},
		{[]string{"-coordinator", "http://localhost:1", "-overview-epsilon", "0.05"}, "-overview-epsilon would be ignored"},
		{[]string{"-live", "-save", save}, "-save would be ignored"},
		{[]string{"-live", "-shards", "2", "-save", save}, "-save would be ignored"},
	} {
		fs := flag.NewFlagSet("geobrowsed", flag.ContinueOnError)
		var cfg config
		cfg.register(fs)
		if err := fs.Parse(append([]string{"-n", "50"}, tc.args...)); err != nil {
			t.Fatal(err)
		}
		nd, err := assemble(cfg)
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

// TestRetiredFlagsAreErrors: flags whose settings the code now makes from
// the data are gone, and passing one fails the command line instead of
// being ignored.
func TestRetiredFlagsAreErrors(t *testing.T) {
	for _, args := range [][]string{{"-rebuild-crossover", "-1"}, {"-pack-cold", "3"}, {"-pyramid-min-grid", "8"}, {"-workers", "2"}} {
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
		{"quoted text dropped", `geobrowsed -coordinator "http://a:1;http://b:2" -n 5`, [][]string{{"-coordinator", "-n", "5"}}},
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
	defer log.SetOutput(os.Stderr)
	fs := flag.NewFlagSet("geobrowsed", flag.ContinueOnError)
	var cfg config
	cfg.register(fs)
	if err := fs.Parse([]string{"-live", "-shards", "2", "-dataset", "adl", "-n", "2000",
		"-max-inflight", "1", "-shed-after", "10ms", "-report", "0"}); err != nil {
		t.Fatal(err)
	}
	nd, err := assemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.close()
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
