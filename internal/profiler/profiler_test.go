package profiler

import (
	"testing"
	"time"

	"repro/internal/core"
)

func ev(blockedID uint64, blockedType string, blockerID uint64, blockerType string, startMs, endMs int) core.BlockEvent {
	base := time.Unix(0, 0)
	return core.BlockEvent{
		BlockedID: blockedID, BlockedType: blockedType,
		BlockerID: blockerID, BlockerType: blockerType,
		Start: base.Add(time.Duration(startMs) * time.Millisecond),
		End:   base.Add(time.Duration(endMs) * time.Millisecond),
	}
}

func TestScoresSimple(t *testing.T) {
	scores := Scores([]core.BlockEvent{
		ev(1, "A", 2, "B", 0, 10),
	})
	if got := scores[MakeEdge("A", "B")]; got != 10*time.Millisecond {
		t.Fatalf("score %v", got)
	}
}

// The Figure 5.6 example: t2 blocks t1 twice (4ms, then 8ms); during the
// second wait t2 is itself blocked by t3 for 6ms, and t2 also directly waits
// on t3 for 7ms elsewhere. Expected: score(T2,T1)=6ms, score(T3,T2)=13ms.
func TestScoresNestedWaitingFigure56(t *testing.T) {
	events := []core.BlockEvent{
		ev(1, "T1", 2, "T2", 0, 4),   // first wait, no nesting
		ev(1, "T1", 2, "T2", 10, 18), // second wait, 8ms
		ev(2, "T2", 3, "T3", 12, 18), // nested inside the second wait
		ev(2, "T2", 3, "T3", 30, 37), // direct wait elsewhere
	}
	scores := Scores(events)
	if got := scores[MakeEdge("T2", "T1")]; got != 6*time.Millisecond {
		t.Fatalf("score(T2,T1) = %v, want 6ms", got)
	}
	if got := scores[MakeEdge("T3", "T2")]; got != 13*time.Millisecond {
		t.Fatalf("score(T3,T2) = %v, want 13ms", got)
	}
}

func TestScoresDeepNesting(t *testing.T) {
	// A waits B for 10ms; B waits C the whole time; C waits D the whole
	// time. Only the innermost conflict carries weight: the root cause.
	events := []core.BlockEvent{
		ev(1, "A", 2, "B", 0, 10),
		ev(2, "B", 3, "C", 0, 10),
		ev(3, "C", 4, "D", 0, 10),
	}
	scores := Scores(events)
	if got := scores[MakeEdge("D", "C")]; got != 10*time.Millisecond {
		t.Fatalf("score(D,C) = %v, want 10ms", got)
	}
	if got := scores[MakeEdge("B", "A")]; got != 0 {
		t.Fatalf("score(B,A) = %v, want 0 (fully nested)", got)
	}
	if got := scores[MakeEdge("C", "B")]; got != 0 {
		t.Fatalf("score(C,B) = %v, want 0 (fully nested)", got)
	}
}

func TestBottleneckPicksMax(t *testing.T) {
	scores := map[Edge]time.Duration{
		MakeEdge("a", "b"): 5 * time.Millisecond,
		MakeEdge("c", "d"): 9 * time.Millisecond,
	}
	edge, score, ok := Bottleneck(scores)
	if !ok || edge != MakeEdge("c", "d") || score != 9*time.Millisecond {
		t.Fatalf("%v %v %v", edge, score, ok)
	}
}

func TestBottleneckEmpty(t *testing.T) {
	if _, _, ok := Bottleneck(nil); ok {
		t.Fatal("empty scores should report no bottleneck")
	}
}

func TestMakeEdgeNormalizes(t *testing.T) {
	if MakeEdge("z", "a") != MakeEdge("a", "z") {
		t.Fatal("edge not normalized")
	}
	e := MakeEdge("x", "x")
	if e.A != "x" || e.B != "x" {
		t.Fatal("self edge broken")
	}
}

func TestProfilerCollectsAndDrains(t *testing.T) {
	p := New(true)
	for i := uint64(0); i < 100; i++ {
		p.ReportBlock(ev(i, "A", i+1000, "B", 0, 1))
	}
	if got := len(p.Window()); got != 100 {
		t.Fatalf("collected %d", got)
	}
	if got := len(p.Window()); got != 0 {
		t.Fatalf("window not drained: %d", got)
	}
}

func TestProfilerDisabled(t *testing.T) {
	p := New(false)
	p.ReportBlock(ev(1, "A", 2, "B", 0, 1))
	if len(p.Window()) != 0 {
		t.Fatal("disabled profiler recorded")
	}
}

func TestScoresSelfEdge(t *testing.T) {
	scores := Scores([]core.BlockEvent{
		ev(1, "pay", 2, "pay", 0, 5),
		ev(3, "pay", 2, "pay", 0, 5),
	})
	if got := scores[MakeEdge("pay", "pay")]; got != 10*time.Millisecond {
		t.Fatalf("self edge %v", got)
	}
}
