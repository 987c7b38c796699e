package gen

import (
	"fmt"
	"math"
	"testing"

	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

func TestStepString(t *testing.T) {
	a, b := geom.NewRect(1, 2, 3, 4), geom.NewRect(5, 6, 7, 8)
	region := grid.Span{I1: 1, J1: 2, I2: 6, J2: 9}
	for _, tc := range []struct {
		name string
		step Step
		want string
	}{
		{"insert", Step{Kind: StepMutate, Mut: Mutation{Op: OpInsert, R: a}}, "insert " + a.String()},
		{"delete", Step{Kind: StepMutate, Mut: Mutation{Op: OpDelete, R: a}}, "delete " + a.String()},
		{"update", Step{Kind: StepMutate, Mut: Mutation{Op: OpUpdate, Old: a, R: b}}, fmt.Sprintf("update %v -> %v", a, b)},
		{"publish", Step{Kind: StepPublish}, "publish"},
		{"checkpoint", Step{Kind: StepCheckpoint}, "checkpoint"},
		{"restart", Step{Kind: StepRestart}, "restart"},
		{"estimates", Step{Kind: StepProbe, Probe: Probe{Kind: ProbeEstimates}}, "probe estimates"},
		{"map", Step{Kind: StepProbe, Probe: Probe{Kind: ProbeMap, Region: region, Cols: 3, Rows: 4}}, "probe 3x4 map of " + region.String()},
		{"buckets", Step{Kind: StepProbe, Probe: Probe{Kind: ProbeBuckets}}, "probe buckets"},
		{"pyramid", Step{Kind: StepProbe, Probe: Probe{Kind: ProbePyramid}}, "probe pyramid levels"},
		{"file", Step{Kind: StepProbe, Probe: Probe{Kind: ProbeFile}}, "probe file round trips"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.step.String(); got != tc.want {
				t.Errorf("String() = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestWindowOf: the window is a block of g's own cells, a quarter of g a
// side and at least one cell, lying inside g.
func TestWindowOf(t *testing.T) {
	for _, size := range [][2]int{{1, 1}, {3, 5}, {4, 4}, {17, 9}, {40, 2}} {
		nx, ny := size[0], size[1]
		t.Run(fmt.Sprintf("%dx%d", nx, ny), func(t *testing.T) {
			g := grid.New(geom.NewRect(-3, 10, 5, 14), nx, ny)
			r := Rand(int64(nx*100 + ny))
			for k := 0; k < 50; k++ {
				w := windowOf(r, g)
				if w.NX() != max(nx/4, 1) || w.NY() != max(ny/4, 1) {
					t.Fatalf("window %v on %v: want %dx%d cells", w, g, max(nx/4, 1), max(ny/4, 1))
				}
				s, err := g.AlignedSpan(w.Extent(), 1e-9)
				if err != nil {
					t.Fatalf("window %v is not on %v's cell edges: %v", w.Extent(), g, err)
				}
				if s.Width() != w.NX() || s.Height() != w.NY() {
					t.Fatalf("window %v covers %v of %v, not one of its cells per window cell", w, s, g)
				}
				if math.Abs(w.CellWidth()-g.CellWidth()) > 1e-9 || math.Abs(w.CellHeight()-g.CellHeight()) > 1e-9 {
					t.Fatalf("window cells %gx%g, grid cells %gx%g", w.CellWidth(), w.CellHeight(), g.CellWidth(), g.CellHeight())
				}
			}
		})
	}
}

// TestNewScriptShape holds NewScript to its documented shape: three to
// five publishes, one checkpoint with a restart at or after it and a
// publish still to come, tilings that divide their regions, the file
// probe last; and, across seeds, both localized and scattered scripts.
func TestNewScriptShape(t *testing.T) {
	localized, scattered := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		r := Rand(seed)
		g := Grid(r, 24, 24)
		s := NewScript(r, g)
		publishes, ckpt, restartAfter := 0, -1, -1
		var inserted []geom.Rect
		for i, st := range s.Steps {
			switch st.Kind {
			case StepPublish:
				publishes++
			case StepCheckpoint:
				if ckpt >= 0 {
					t.Fatalf("seed %d: second checkpoint at step %d", seed, i)
				}
				ckpt = i
			case StepRestart:
				if ckpt >= 0 && restartAfter < 0 {
					restartAfter = i
				}
			case StepMutate:
				if st.Mut.Op != OpDelete {
					inserted = append(inserted, st.Mut.R)
				}
			case StepProbe:
				if p := st.Probe; p.Kind == ProbeMap {
					full := grid.Span{I2: g.NX() - 1, J2: g.NY() - 1}
					if !full.Contains(p.Region) || p.Region.Width()%p.Cols != 0 || p.Region.Height()%p.Rows != 0 {
						t.Fatalf("seed %d: %v does not tile its region inside %v", seed, p, g)
					}
				}
			}
		}
		if publishes < 3 || publishes > 5 {
			t.Errorf("seed %d: %d publishes, want 3 to 5", seed, publishes)
		}
		if ckpt < 0 || restartAfter < 0 {
			t.Fatalf("seed %d: checkpoint at %d, first restart after it at %d", seed, ckpt, restartAfter)
		}
		published := false
		for _, st := range s.Steps[restartAfter:] {
			published = published || st.Kind == StepPublish
		}
		if !published {
			t.Errorf("seed %d: no publish after the restart at step %d", seed, restartAfter)
		}
		if last := s.Steps[len(s.Steps)-1]; last.Kind != StepProbe || last.Probe.Kind != ProbeFile {
			t.Errorf("seed %d: last step %v, want the file probe", seed, last)
		}
		box := inserted[0]
		for _, o := range inserted[1:] {
			box = box.Union(o)
		}
		if box.Width() <= float64(max(g.NX()/4, 1))*g.CellWidth()+1e-9 && box.Height() <= float64(max(g.NY()/4, 1))*g.CellHeight()+1e-9 {
			localized++
		} else {
			scattered++
		}
	}
	if localized == 0 || scattered == 0 {
		t.Errorf("40 scripts: %d localized, %d scattered; want both kinds", localized, scattered)
	}
}
