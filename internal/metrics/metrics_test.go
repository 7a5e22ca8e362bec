package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

func TestSimTimeKeepsMaxPerStep(t *testing.T) {
	c := NewCollector()
	c.RecordSimStep(1, 10*time.Millisecond)
	c.RecordSimStep(1, 30*time.Millisecond) // slower rank
	c.RecordSimStep(1, 20*time.Millisecond)
	c.RecordSimStep(2, 40*time.Millisecond)
	total, per, steps := c.SimTime()
	if steps != 2 {
		t.Fatalf("steps: want 2, got %d", steps)
	}
	if total != 70*time.Millisecond {
		t.Fatalf("total: want 70ms, got %v", total)
	}
	if per != 35*time.Millisecond {
		t.Fatalf("per-step: want 35ms, got %v", per)
	}
}

func TestInSituMaxAcrossRanks(t *testing.T) {
	c := NewCollector()
	c.RecordInSitu("topology", 1, 5*time.Millisecond)
	c.RecordInSitu("topology", 1, 9*time.Millisecond)
	c.RecordInSitu("topology", 2, 7*time.Millisecond)
	b := c.Total("topology")
	if b.Steps != 2 || b.InSitu != 16*time.Millisecond {
		t.Fatalf("breakdown wrong: %+v", b)
	}
	per := b.PerStep()
	if per.InSitu != 8*time.Millisecond {
		t.Fatalf("per-step in-situ: want 8ms, got %v", per.InSitu)
	}
}

func TestRecordTransitAccumulates(t *testing.T) {
	c := NewCollector()
	c.RecordTransit("viz", 2*time.Millisecond, 3*time.Millisecond, 1000, 50*time.Millisecond)
	c.RecordTransit("viz", 4*time.Millisecond, 5*time.Millisecond, 2000, 70*time.Millisecond)
	b := c.Total("viz")
	if b.MoveModeled != 6*time.Millisecond || b.MoveWall != 8*time.Millisecond ||
		b.MoveBytes != 3000 || b.InTransit != 120*time.Millisecond {
		t.Fatalf("transit accumulation wrong: %+v", b)
	}
}

func TestAnalysesSorted(t *testing.T) {
	c := NewCollector()
	c.RecordInSitu("zeta", 1, time.Millisecond)
	c.RecordTransit("alpha", 0, 0, 1, 0)
	got := c.Analyses()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("analyses order wrong: %v", got)
	}
}

func TestPerStepZeroSteps(t *testing.T) {
	var b Breakdown
	if b.PerStep() != b {
		t.Fatal("zero-step per-step must be identity")
	}
}

func TestTableIIFormat(t *testing.T) {
	c := NewCollector()
	c.RecordInSitu("hybrid topology", 1, 2720*time.Millisecond)
	c.RecordTransit("hybrid topology", 2060*time.Millisecond, time.Second, 87_020_000, 119_810*time.Millisecond)
	out := c.TableII()
	if !strings.Contains(out, "hybrid topology") {
		t.Fatalf("missing analysis row:\n%s", out)
	}
	if !strings.Contains(out, "87.02") {
		t.Fatalf("MB column wrong:\n%s", out)
	}
	// Header present.
	if !strings.Contains(out, "in-transit") {
		t.Fatalf("missing header:\n%s", out)
	}
}

func TestFmtDurAdaptivePrecision(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "—"},
		{1500 * time.Nanosecond, "2µs"}, // sub-minute: µs rounding
		{59*time.Second + 999*time.Millisecond, "59.999s"},       // still µs precision band
		{61*time.Second + 123456789*time.Nanosecond, "1m1.123s"}, // sub-hour: ms rounding
		{59*time.Minute + 59*time.Second + 700*time.Millisecond, "59m59.7s"},
		{3*time.Hour + 25*time.Minute + 45*time.Second + 600*time.Millisecond, "3h25m46s"}, // hours: s rounding
	}
	for _, tc := range cases {
		if got := fmtDur(tc.d); got != tc.want {
			t.Errorf("fmtDur(%v) = %q, want %q", tc.d, got, tc.want)
		}
		if len(fmtDur(tc.d)) > 14 {
			t.Errorf("fmtDur(%v) = %q overflows the 14-char column", tc.d, fmtDur(tc.d))
		}
	}
}

// TestTableIIGoldenLongDurations pins the exact rendering — column
// alignment included — of a table whose durations exceed one minute,
// the case where the old fixed-precision fmtDur overflowed its column
// and pushed every later column out of alignment.
func TestTableIIGoldenLongDurations(t *testing.T) {
	c := NewCollector()
	c.RecordInSitu("hybrid topology", 1, 83*time.Minute+20*time.Second)
	c.RecordTransit("hybrid topology", 2*time.Minute+3456*time.Millisecond,
		time.Minute, 87_020_000, 4*time.Hour+1500*time.Millisecond)
	c.RecordInSitu("in-situ statistics", 1, 250*time.Microsecond)
	want := "" +
		"analysis                                          in-situ       movement     moved (MB)     in-transit\n" +
		"hybrid topology                                  1h23m20s       2m3.456s          87.02         4h0m2s\n" +
		"in-situ statistics                                  250µs              —           0.00              —\n"
	if got := c.TableII(); got != want {
		t.Fatalf("TableII drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	for i, line := range strings.Split(strings.TrimRight(c.TableII(), "\n"), "\n") {
		if n := utf8.RuneCountInString(line); n != 102 {
			t.Fatalf("line %d is %d chars, want 102 (columns drifted): %q", i+1, n, line)
		}
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for s := 1; s <= 100; s++ {
				c.RecordSimStep(s, time.Duration(id+1)*time.Millisecond)
				c.RecordInSitu("a", s, time.Millisecond)
				c.RecordTransit("a", time.Microsecond, time.Microsecond, 10, time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	_, per, steps := c.SimTime()
	if steps != 100 || per != 8*time.Millisecond {
		t.Fatalf("concurrent collection wrong: steps=%d per=%v", steps, per)
	}
	if b := c.Total("a"); b.MoveBytes != 8000 {
		t.Fatalf("concurrent transit bytes: %d", b.MoveBytes)
	}
}

func TestStepWallKeepsMaxAcrossRanks(t *testing.T) {
	c := NewCollector()
	c.RecordStepWall(1, 10*time.Millisecond)
	c.RecordStepWall(1, 30*time.Millisecond) // slower rank wins
	c.RecordStepWall(1, 20*time.Millisecond)
	c.RecordStepWall(2, 5*time.Millisecond)
	walls := c.StepWalls()
	if walls[1] != 30*time.Millisecond || walls[2] != 5*time.Millisecond {
		t.Fatalf("step walls %v", walls)
	}
	if c.MaxStepWall() != 30*time.Millisecond {
		t.Fatalf("max step wall %v, want 30ms", c.MaxStepWall())
	}
}
