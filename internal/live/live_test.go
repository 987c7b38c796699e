package live

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialhist/internal/check/gen"
	"spatialhist/internal/core"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

// testGrid is small enough that full query sweeps stay fast.
func testGrid() *grid.Grid { return grid.NewUnit(16, 12) }

// liveRectOpts is the object profile of the live tests: at most 6x5
// cells, strictly inside the space, so every generated insert is
// accepted by the store.
var liveRectOpts = gen.RectOpts{MaxCellsX: 6, MaxCellsY: 5, Inside: true}

// randRect returns a random MBR inside the unit test space.
func randRect(r *rand.Rand) geom.Rect {
	return gen.Rect(r, testGrid(), liveRectOpts)
}

// sweep compares two estimators bit-identically over every aligned span of
// a coarse sweep of the grid.
func sweep(t *testing.T, got, want core.Estimator) {
	t.Helper()
	g := want.Grid()
	if got.Count() != want.Count() {
		t.Fatalf("counts diverge: got %d, want %d", got.Count(), want.Count())
	}
	for i1 := 0; i1 < g.NX(); i1 += 3 {
		for j1 := 0; j1 < g.NY(); j1 += 3 {
			for i2 := i1; i2 < g.NX(); i2 += 4 {
				for j2 := j1; j2 < g.NY(); j2 += 4 {
					q := grid.Span{I1: i1, J1: j1, I2: i2, J2: j2}
					if a, b := got.Estimate(q), want.Estimate(q); a != b {
						t.Fatalf("estimate at %v diverges: got %v, want %v", q, a, b)
					}
				}
			}
		}
	}
}

// mutationScript adapts the shared mutation-stream generator to the WAL
// record shape the replay tests feed through the store API.
func mutationScript(seed []geom.Rect, n int) []Record {
	muts := gen.Mutations(rand.New(rand.NewSource(7)), testGrid(), seed, n, liveRectOpts)
	recs := make([]Record, len(muts))
	for i, m := range muts {
		switch m.Op {
		case gen.OpInsert:
			recs[i] = Record{Op: OpInsert, Rect: m.R}
		case gen.OpDelete:
			recs[i] = Record{Op: OpDelete, Rect: m.R}
		case gen.OpUpdate:
			recs[i] = Record{Op: OpUpdate, Old: m.Old, Rect: m.R}
		}
	}
	return recs
}

// play feeds a mutation script through the store's public API.
func play(t *testing.T, s *Store, recs []Record) {
	t.Helper()
	for _, rec := range recs {
		var err error
		switch rec.Op {
		case OpInsert:
			_, err = s.Insert(rec.Rect)
		case OpDelete:
			_, err = s.Delete(rec.Rect)
		case OpUpdate:
			_, err = s.Update(rec.Old, rec.Rect)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func seedRects(n int) []geom.Rect {
	r := rand.New(rand.NewSource(3))
	out := make([]geom.Rect, n)
	for i := range out {
		out[i] = randRect(r)
	}
	return out
}

// current returns the store's published estimator and generation, pinned
// until the test ends.
func current(t testing.TB, s *Store) (core.Estimator, uint64) {
	est, gen, release := s.AcquireEstimator()
	t.Cleanup(release)
	return est, gen
}

func openTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestWALReplayRoundTrip(t *testing.T) {
	for _, algo := range []struct {
		name  string
		algo  Algo
		areas []float64
	}{
		{"seuler", AlgoSEuler, nil},
		{"euler", AlgoEuler, nil},
		{"meuler", AlgoMEuler, []float64{1, 9, 40}},
	} {
		t.Run(algo.name, func(t *testing.T) {
			dir := t.TempDir()
			walPath := filepath.Join(dir, "store.wal")
			seed := seedRects(50)
			cfg := Config{Grid: testGrid(), Algo: algo.algo, Areas: algo.areas,
				Seed: seed, WALPath: walPath, RebuildEvery: -1}

			a := openTestStore(t, cfg)
			play(t, a, mutationScript(seed, 300))
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
			estA, genA := current(t, a)
			if genA < 2 {
				t.Fatalf("flush did not publish a new generation (gen %d)", genA)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}

			// A restart over the same seed and journal reconstructs the
			// store bit-identically.
			b := openTestStore(t, cfg)
			estB, _ := current(t, b)
			sweep(t, estB, estA)
			if got, want := b.Status().Mutations, int64(300); got != want {
				t.Fatalf("replayed mutation count %d, want %d", got, want)
			}
		})
	}
}

// TestCrashRecovery kills the store after N journaled mutations (by
// copying the durable WAL prefix, as a crash would leave it) and verifies
// the recovered store's estimates are bit-identical to an uninterrupted
// store that applied exactly the same prefix of mutations.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "store.wal")
	seed := seedRects(40)
	recs := mutationScript(seed, 200)
	cfg := Config{Grid: testGrid(), Algo: AlgoMEuler, Areas: []float64{1, 9, 40},
		Seed: seed, WALPath: walPath, RebuildEvery: -1, SyncEvery: 1}

	s := openTestStore(t, cfg)
	play(t, s, recs)

	// Byte length of the journal after the header and the first n records.
	lenAfter := func(n int) int64 {
		off := int64(len(s.header))
		for _, rec := range recs[:n] {
			off += rec.encodedLen()
		}
		return off
	}
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != lenAfter(len(recs)) {
		t.Fatalf("journal is %d bytes, want %d", len(raw), lenAfter(len(recs)))
	}

	for _, n := range []int{0, 1, 37, 200} {
		// The crash artifact: only the first n records survived.
		crashed := filepath.Join(dir, "crashed.wal")
		if err := os.WriteFile(crashed, raw[:lenAfter(n)], 0o644); err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.WALPath = crashed
		recovered := openTestStore(t, rcfg)

		// The uninterrupted reference: same seed, same first n mutations,
		// no journal, no crash.
		ref := openTestStore(t, Config{Grid: testGrid(), Algo: cfg.Algo,
			Areas: cfg.Areas, Seed: seed, RebuildEvery: -1})
		play(t, ref, recs[:n])
		if err := ref.Flush(); err != nil {
			t.Fatal(err)
		}

		gotEst, _ := current(t, recovered)
		wantEst, _ := current(t, ref)
		sweep(t, gotEst, wantEst)
		recovered.Close()
		ref.Close()
	}
}

// TestTornTailRecovery corrupts the journal the way crashes do — a partial
// final record, then garbage — and verifies recovery truncates to the
// valid prefix and keeps serving.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "store.wal")
	seed := seedRects(30)
	recs := mutationScript(seed, 50)
	cfg := Config{Grid: testGrid(), Algo: AlgoEuler, Seed: seed,
		WALPath: walPath, RebuildEvery: -1, SyncEvery: 1}
	s := openTestStore(t, cfg)
	play(t, s, recs)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	reg := telemetry.NewRegistry()
	for name, mangle := range map[string]func([]byte) []byte{
		"partial record": func(b []byte) []byte { return b[:len(b)-5] },
		"flipped payload": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-10] ^= 0xff
			return c
		},
		"garbage appended": func(b []byte) []byte { return append(append([]byte(nil), b...), 0xde, 0xad, 0xbe) },
	} {
		torn := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(torn, mangle(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.WALPath = torn
		rcfg.Telemetry = reg
		recovered, err := Open(rcfg)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", name, err)
		}
		st := recovered.Status()
		if st.Mutations >= int64(len(recs))+1 || st.Mutations < int64(len(recs))-1 {
			t.Fatalf("%s: recovered %d mutations, want ~%d", name, st.Mutations, len(recs))
		}
		// The truncated journal must accept appends again.
		if _, err := recovered.Insert(geom.NewRect(1, 1, 2, 2)); err != nil {
			t.Fatalf("%s: append after recovery: %v", name, err)
		}
		recovered.Close()
	}
	if reg.Counter("live_wal_torn_tails_total", "").Value() == 0 {
		t.Error("torn-tail recoveries were not counted")
	}
}

// TestReplayAcrossBufferBoundary recovers a journal longer than the replay
// buffer, cut at every offset within a record or so of where the first
// read ends, and holds each recovery to a fresh store fed the records
// before the cut: the partial record one read carries into the next
// decodes like any other, the journal is truncated to the last whole
// record, and only a cut inside a record counts as torn.
func TestReplayAcrossBufferBoundary(t *testing.T) {
	dir := t.TempDir()
	seed := seedRects(20)
	recs := mutationScript(seed, 2500)
	cfg := Config{Grid: testGrid(), Algo: AlgoMEuler, Areas: []float64{1, 9, 40},
		Seed: seed, WALPath: filepath.Join(dir, "store.wal"), RebuildEvery: -1}
	s := openTestStore(t, cfg)
	play(t, s, recs)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int64{int64(len(s.header))} // journal length after each record
	for _, rec := range recs {
		ends = append(ends, ends[len(ends)-1]+rec.encodedLen())
	}
	boundary := int64(len(s.header)) + replayBufBytes
	if int64(len(raw)) != ends[len(recs)] || int64(len(raw)) < boundary+updateRecordBytes {
		t.Fatalf("journal of %d bytes (records end at %d) does not span the %d-byte buffer", len(raw), ends[len(recs)], replayBufBytes)
	}

	for cut := boundary - updateRecordBytes; cut <= boundary+updateRecordBytes; cut++ {
		n := 0
		for ends[n+1] <= cut {
			n++
		}
		path := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		rcfg := cfg
		rcfg.WALPath, rcfg.Telemetry = path, reg
		recovered := openTestStore(t, rcfg)
		ref := openTestStore(t, Config{Grid: cfg.Grid, Algo: cfg.Algo, Areas: cfg.Areas, Seed: seed, RebuildEvery: -1})
		play(t, ref, recs[:n])
		if err := ref.Flush(); err != nil {
			t.Fatal(err)
		}
		gotEst, _ := current(t, recovered)
		wantEst, _ := current(t, ref)
		sweep(t, gotEst, wantEst)
		st := recovered.Status()
		if st.Mutations != int64(n) || st.WALBytes != ends[n] {
			t.Fatalf("cut at %d: recovered %d mutations in %d journal bytes, want %d in %d", cut, st.Mutations, st.WALBytes, n, ends[n])
		}
		wantTorn := int64(0)
		if cut != ends[n] {
			wantTorn = 1
		}
		if got := reg.Counter("live_wal_torn_tails_total", "").Value(); got != wantTorn {
			t.Fatalf("cut at %d (last record ends at %d): %d torn tails counted, want %d", cut, ends[n], got, wantTorn)
		}
		recovered.Close()
		ref.Close()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != ends[n] {
			t.Fatalf("cut at %d: journal left at %d bytes, want truncated to %d", cut, fi.Size(), ends[n])
		}
	}
}

// TestReplayMemoryIsOneBuffer bounds what Open allocates to replay its
// journal: a 100k-record tail may cost less than 1 MiB more than a
// 10k-record one, where a slice of the decoded tail alone would cost
// several.
func TestReplayMemoryIsOneBuffer(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Grid: testGrid(), Algo: AlgoEuler, RebuildEvery: -1}
	journal := func(n int) string {
		path := filepath.Join(dir, fmt.Sprintf("%d.wal", n))
		r := rand.New(rand.NewSource(int64(n)))
		buf := cfg.header()
		for i := 0; i < n; i++ {
			buf = encodeRecord(buf, Record{Op: OpInsert, Rect: randRect(r)})
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	openAllocs := func(path string, n int) int64 {
		c := cfg
		c.WALPath, c.Telemetry = path, telemetry.NewRegistry()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := Open(c)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got := s.Status().Mutations; got != int64(n) {
			t.Fatalf("replayed %d of %d records", got, n)
		}
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	small := openAllocs(journal(10_000), 10_000)
	large := openAllocs(journal(100_000), 100_000)
	t.Logf("Open allocated %d bytes over 10k records, %d over 100k", small, large)
	if large-small >= 1<<20 {
		t.Fatalf("replaying 90k more records allocated %d more bytes, want < 1 MiB", large-small)
	}
}

// TestLiveMatchesBatchBuild drives the store through churn and verifies
// the final snapshot is bit-identical to a batch build over the surviving
// objects — including M-EulerApprox partition routing, where an Update
// that changes an object's area class must re-route it.
func TestLiveMatchesBatchBuild(t *testing.T) {
	g := testGrid()
	areas := []float64{1, 9, 40}
	seed := seedRects(60)
	s := openTestStore(t, Config{Grid: g, Algo: AlgoMEuler, Areas: areas,
		Seed: seed, RebuildEvery: -1})

	live := append([]geom.Rect(nil), seed...)
	// A small object re-routed to the largest area class and back.
	small := geom.NewRect(3.2, 3.2, 3.6, 3.6)
	big := geom.NewRect(1, 1, 12, 9)
	if _, err := s.Insert(small); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Update(small, big); !ok || err != nil {
		t.Fatalf("update small→big: %v %v", ok, err)
	}
	if ok, err := s.Update(big, small); !ok || err != nil {
		t.Fatalf("update big→small: %v %v", ok, err)
	}
	live = append(live, small)

	r := rand.New(rand.NewSource(11))
	for i := 0; i < 150; i++ {
		if len(live) > 10 && i%3 == 0 {
			k := r.Intn(len(live))
			if ok, err := s.Delete(live[k]); !ok || err != nil {
				t.Fatalf("delete %v: %v %v", live[k], ok, err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		nr := randRect(r)
		if _, err := s.Insert(nr); err != nil {
			t.Fatal(err)
		}
		live = append(live, nr)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	batch, err := core.NewMEuler(g, areas, live)
	if err != nil {
		t.Fatal(err)
	}
	est, _ := current(t, s)
	sweep(t, est, batch)
}

func TestRebuildPolicyCount(t *testing.T) {
	s := openTestStore(t, Config{Grid: testGrid(), Algo: AlgoSEuler, RebuildEvery: 4})
	gen0 := s.Generation()
	if gen0 != 1 {
		t.Fatalf("initial generation %d, want 1", gen0)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Insert(geom.NewRect(1, 1, 2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	est, gen := current(t, s)
	if gen != 2 {
		t.Fatalf("generation after 4 mutations = %d, want 2", gen)
	}
	if est.Count() != 4 {
		t.Fatalf("snapshot count %d, want 4", est.Count())
	}
	if p := s.Status().Pending; p != 0 {
		t.Fatalf("pending after policy rebuild = %d", p)
	}

	// Three more mutations stay pending: the stale snapshot still serves.
	for i := 0; i < 3; i++ {
		if _, err := s.Insert(geom.NewRect(2, 2, 3, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if gen := s.Generation(); gen != 2 {
		t.Fatalf("generation advanced early to %d", gen)
	}
	if p := s.Status().Pending; p != 3 {
		t.Fatalf("pending = %d, want 3", p)
	}
}

func TestRebuildPolicyInterval(t *testing.T) {
	s := openTestStore(t, Config{Grid: testGrid(), Algo: AlgoSEuler,
		RebuildEvery: -1, RebuildInterval: 5 * time.Millisecond})
	if _, err := s.Insert(geom.NewRect(1, 1, 2, 2)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if gen := s.Generation(); gen >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval rebuild never fired")
		}
		time.Sleep(time.Millisecond)
	}
	est, _ := current(t, s)
	if est.Count() != 1 {
		t.Fatalf("interval snapshot count %d, want 1", est.Count())
	}
}

func TestCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Grid: testGrid(), Algo: AlgoMEuler, Areas: []float64{1, 9, 40},
		Seed:    seedRects(40),
		WALPath: filepath.Join(dir, "store.wal"), CheckpointPath: filepath.Join(dir, "store.ckpt"),
		RebuildEvery: -1}
	recs := mutationScript(cfg.Seed, 120)

	s := openTestStore(t, cfg)
	play(t, s, recs[:70])
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	play(t, s, recs[70:])
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want, _ := current(t, s)
	if err := s.Close(); err != nil { // re-checkpoints at the final state
		t.Fatal(err)
	}

	// Restart: checkpoint supersedes the seed; only the WAL tail past it
	// is replayed. An empty seed proves the checkpoint carries the state.
	rcfg := cfg
	rcfg.Seed = nil
	restarted := openTestStore(t, rcfg)
	got, _ := current(t, restarted)
	sweep(t, got, want)
	if m := restarted.Status().Mutations; m != int64(len(recs)) {
		t.Fatalf("restarted mutation count %d, want %d", m, len(recs))
	}

	// And the restarted store keeps accepting mutations.
	if ok, err := restarted.Insert(geom.NewRect(5, 5, 6, 6)); !ok || err != nil {
		t.Fatalf("insert after restart: %v %v", ok, err)
	}
}

// TestCheckpointMidCrash checkpoints mid-stream, keeps mutating, then
// "crashes": recovery must start from the checkpoint and replay only the
// tail, landing bit-identical to the uninterrupted store.
func TestCheckpointMidCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Grid: testGrid(), Algo: AlgoEuler, Seed: seedRects(30),
		WALPath: filepath.Join(dir, "store.wal"), CheckpointPath: filepath.Join(dir, "store.ckpt"),
		RebuildEvery: -1, SyncEvery: 1}
	recs := mutationScript(cfg.Seed, 100)

	s := openTestStore(t, cfg)
	play(t, s, recs[:60])
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	play(t, s, recs[60:])
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want, _ := current(t, s)

	// Crash: copy the WAL and checkpoint as the dead process left them —
	// no Close, so the checkpoint still points at record 60.
	for _, f := range []string{"store.wal", "store.ckpt"} {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "crash-"+f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rcfg := cfg
	rcfg.Seed = nil
	rcfg.WALPath = filepath.Join(dir, "crash-store.wal")
	rcfg.CheckpointPath = filepath.Join(dir, "crash-store.ckpt")
	recovered := openTestStore(t, rcfg)
	got, _ := current(t, recovered)
	sweep(t, got, want)
}

// TestJournalLessCheckpointKeepsJournalOffset: a store opened on a
// journaled store's checkpoint without the journal writes the journal
// offset it loaded back into its own checkpoint, so reopening the journal
// over that checkpoint replays nothing twice.
func TestJournalLessCheckpointKeepsJournalOffset(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Grid: testGrid(), Algo: AlgoEuler, Seed: seedRects(30),
		WALPath: filepath.Join(dir, "store.wal"), CheckpointPath: filepath.Join(dir, "store.ckpt"),
		RebuildEvery: -1}
	recs := mutationScript(cfg.Seed, 90)

	s := openTestStore(t, cfg)
	play(t, s, recs[:60])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	bare := cfg
	bare.Seed, bare.WALPath = nil, ""
	s = openTestStore(t, bare)
	play(t, s, recs[60:])
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want, _ := current(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Seed = nil
	reopened := openTestStore(t, rcfg)
	got, _ := current(t, reopened)
	sweep(t, got, want)
	if m := reopened.Status().Mutations; m != int64(len(recs)) {
		t.Fatalf("reopened store counts %d mutations, want %d", m, len(recs))
	}
}

// TestDamagedCheckpointRefusesToOpen: a checkpoint that is foreign,
// truncated, or ahead of its journal is a hard error at Open — starting
// from the seed, or replaying from the wrong offset, would fork history.
func TestDamagedCheckpointRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Grid: testGrid(), Algo: AlgoEuler, Seed: seedRects(30),
		WALPath: filepath.Join(dir, "store.wal"), CheckpointPath: filepath.Join(dir, "store.ckpt"),
		RebuildEvery: -1}
	s := openTestStore(t, cfg)
	play(t, s, mutationScript(cfg.Seed, 40))
	if err := s.Close(); err != nil { // checkpoints at the journal's end
		t.Fatal(err)
	}
	other := cfg
	other.Algo, other.WALPath, other.CheckpointPath = AlgoSEuler, "", filepath.Join(dir, "other.ckpt")
	if err := openTestStore(t, other).Close(); err != nil {
		t.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ckpt, journal, foreign := read("store.ckpt"), read("store.wal"), read("other.ckpt")
	offsets := len(ckptMagic) + len(cfg.header()) // where walOff begins

	for _, tc := range []struct {
		name          string
		ckpt, journal []byte
		want          string
	}{
		{"not-a-checkpoint", append([]byte("NOTACKPT"), ckpt[len(ckptMagic):]...), journal, "not a checkpoint"},
		{"other-configuration", foreign, journal, "different store configuration"},
		{"truncated-offsets", ckpt[:offsets+4], journal, "WAL offset"},
		{"truncated-histograms", ckpt[:len(ckpt)-1], journal, "checkpoint partition"},
		{"journal-behind-checkpoint", ckpt, journal[:len(journal)-1], "checkpoint expects"},
		{"journal-empty", ckpt, nil, "is empty"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sub := t.TempDir()
			rcfg := cfg
			rcfg.Seed, rcfg.Telemetry = nil, telemetry.NewRegistry()
			rcfg.WALPath, rcfg.CheckpointPath = filepath.Join(sub, "store.wal"), filepath.Join(sub, "store.ckpt")
			if err := os.WriteFile(rcfg.CheckpointPath, tc.ckpt, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(rcfg.WALPath, tc.journal, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(rcfg)
			if err == nil {
				s.Close()
				t.Fatal("Open accepted the damaged checkpoint")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open: %v, want an error saying %q", err, tc.want)
			}
		})
	}
}

func TestConfigMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "store.wal")
	s := openTestStore(t, Config{Grid: testGrid(), Algo: AlgoSEuler, WALPath: walPath})
	if _, err := s.Insert(geom.NewRect(1, 1, 2, 2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	cases := map[string]Config{
		"different grid": {Grid: grid.NewUnit(8, 8), Algo: AlgoSEuler, WALPath: walPath},
		"different algo": {Grid: testGrid(), Algo: AlgoEuler, WALPath: walPath},
		"meuler areas":   {Grid: testGrid(), Algo: AlgoMEuler, Areas: []float64{1, 9}, WALPath: walPath},
	}
	for name, cfg := range cases {
		cfg.Telemetry = telemetry.NewRegistry()
		if _, err := Open(cfg); err == nil {
			t.Errorf("%s: Open must reject a foreign WAL", name)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := map[string]Config{
		"no grid":        {Algo: AlgoSEuler},
		"no algo":        {Grid: testGrid()},
		"meuler no area": {Grid: testGrid(), Algo: AlgoMEuler},
		"areas not unit": {Grid: testGrid(), Algo: AlgoMEuler, Areas: []float64{2, 4}},
		"areas unsorted": {Grid: testGrid(), Algo: AlgoMEuler, Areas: []float64{1, 9, 4}},
		"seuler w/areas": {Grid: testGrid(), Algo: AlgoSEuler, Areas: []float64{1, 4}},
		"euler w/areas":  {Grid: testGrid(), Algo: AlgoEuler, Areas: []float64{1}},
		"unknown algo":   {Grid: testGrid(), Algo: 4},
		"areas empty":    {Grid: testGrid(), Algo: AlgoMEuler, Areas: []float64{}},
		"areas repeated": {Grid: testGrid(), Algo: AlgoMEuler, Areas: []float64{1, 9, 9}},
		"areas NaN":      {Grid: testGrid(), Algo: AlgoMEuler, Areas: []float64{1, math.NaN()}},
		"areas infinite": {Grid: testGrid(), Algo: AlgoMEuler, Areas: []float64{1, 9, math.Inf(1)}},
	}
	for name, cfg := range cases {
		cfg.Telemetry = telemetry.NewRegistry()
		if _, err := Open(cfg); err == nil {
			t.Errorf("%s: Open must reject the config", name)
		}
	}
}

// TestApply: a batch through Apply is the per-mutation calls it replaces —
// same counts, same journal, same published estimator — flushing only when
// asked, refusing opcodes that are not batch mutations, and stopping with
// its counts so far when the store fails under it.
func TestApply(t *testing.T) {
	seed := seedRects(50)
	batch := append(seedRects(30), geom.NewRect(100, 100, 110, 110)) // the last lies outside
	cfg := Config{Grid: testGrid(), Algo: AlgoMEuler, Areas: []float64{1, 9, 40}, Seed: seed, RebuildEvery: -1}
	a, b := openTestStore(t, cfg), openTestStore(t, cfg)

	applied, rejected, gen, err := a.Apply(OpInsert, batch, false)
	if err != nil || applied != 30 || rejected != 1 || gen != 1 {
		t.Fatalf("Apply(insert) = %d %d gen %d %v, want 30 1 gen 1", applied, rejected, gen, err)
	}
	if a.Status().Pending != 31 {
		t.Fatalf("unflushed batch left %d pending, want 31", a.Status().Pending)
	}
	applied, rejected, gen, err = a.Apply(OpDelete, batch[10:], true)
	if err != nil || applied != 20 || rejected != 1 || gen != 2 {
		t.Fatalf("Apply(delete, flush) = %d %d gen %d %v, want 20 1 gen 2", applied, rejected, gen, err)
	}
	for _, r := range batch {
		if _, err := b.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range batch[10:] {
		if _, err := b.Delete(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	estA, _ := current(t, a)
	estB, _ := current(t, b)
	sweep(t, estA, estB)
	if sa, sb := a.Status(), b.Status(); sa.Mutations != sb.Mutations || sa.Rejected != sb.Rejected || sa.LiveObjects != sb.LiveObjects {
		t.Fatalf("status diverges: %+v vs %+v", sa, sb)
	}

	if _, _, _, err := a.Apply(OpUpdate, batch, false); err == nil {
		t.Fatal("Apply accepted an update opcode")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if applied, rejected, _, err := a.Apply(OpInsert, batch, true); err != ErrClosed || applied != 0 || rejected != 0 {
		t.Fatalf("Apply on a closed store = %d %d %v, want 0 0 ErrClosed", applied, rejected, err)
	}
}

func TestRejectedMutations(t *testing.T) {
	s := openTestStore(t, Config{Grid: testGrid(), Algo: AlgoSEuler, RebuildEvery: -1})
	// Deleting from an empty store must not underflow anything.
	if ok, err := s.Delete(geom.NewRect(1, 1, 2, 2)); ok || err != nil {
		t.Fatalf("delete on empty store: %v %v", ok, err)
	}
	// Inserting outside the space is journal-visible but rejected.
	if ok, err := s.Insert(geom.NewRect(100, 100, 110, 110)); ok || err != nil {
		t.Fatalf("insert outside space: %v %v", ok, err)
	}
	st := s.Status()
	if st.Rejected != 2 || st.LiveObjects != 0 {
		t.Fatalf("status = %+v, want 2 rejected, 0 live", st)
	}
}

func TestClosedStore(t *testing.T) {
	s := openTestStore(t, Config{Grid: testGrid(), Algo: AlgoSEuler})
	if _, err := s.Insert(geom.NewRect(1, 1, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(geom.NewRect(1, 1, 2, 2)); err != ErrClosed {
		t.Fatalf("insert after close: %v, want ErrClosed", err)
	}
	// The last snapshot keeps serving reads.
	est, _ := current(t, s)
	if est == nil {
		t.Fatal("snapshot gone after close")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestConcurrentIngestAndQuery hammers the store from writer and reader
// goroutines; run under -race this is the store's data-race gate. Readers
// verify the structural invariant on whatever snapshot they observe: the
// four relation counts of the whole-space query sum to the snapshot's
// object count.
func TestConcurrentIngestAndQuery(t *testing.T) {
	s := openTestStore(t, Config{Grid: testGrid(), Algo: AlgoMEuler,
		Areas: []float64{1, 9, 40}, Seed: seedRects(50), RebuildEvery: 16,
		WALPath: filepath.Join(t.TempDir(), "store.wal")})

	const writers, readers, perWriter = 4, 4, 200
	var wwg, rwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(seed int64) {
			defer wwg.Done()
			r := rand.New(rand.NewSource(seed))
			var mine []geom.Rect
			for i := 0; i < perWriter; i++ {
				if len(mine) > 0 && r.Intn(3) == 0 {
					k := r.Intn(len(mine))
					if _, err := s.Delete(mine[k]); err != nil {
						t.Error(err)
						return
					}
					mine[k] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					continue
				}
				nr := randRect(r)
				if _, err := s.Insert(nr); err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, nr)
			}
		}(int64(w))
	}
	stop := make(chan struct{})
	for rd := 0; rd < readers; rd++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			g := s.Grid()
			whole := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
			for {
				select {
				case <-stop:
					return
				default:
				}
				est, gen, release := s.AcquireEstimator()
				if gen == 0 {
					t.Error("observed unpublished snapshot")
					return
				}
				if got := est.Estimate(whole).Total(); got != est.Count() {
					t.Errorf("gen %d: estimate total %d != count %d", gen, got, est.Count())
					return
				}
				release()
				s.Status()
			}
		}()
	}
	wwg.Wait()
	close(stop)
	rwg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	gen := s.Generation()
	if gen < 2 {
		t.Fatalf("no rebuilds under concurrent load (gen %d)", gen)
	}
}
