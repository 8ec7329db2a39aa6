package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// Crash-point torture harness. The WAL's CrashHook runs at every crash and
// fault point: the appender's append/flush/seal and each durability call of
// the log store. Killing the process at such a point leaves exactly
// the bytes already written to the OS file — buffered user-space data dies
// with the process — so the harness simulates the kill by copying the log
// directory inside the hook, while the system keeps running. Each copy is
// one "crash image". After the workload, every image is recovered and two
// invariants are asserted:
//
//   - durability: every commit that was sync-acknowledged before the image
//     was captured is present with at least its acknowledged version;
//   - integrity: every recovered value is byte-identical to a value some
//     transaction actually wrote, with the exact commit timestamp it was
//     written at — no torn, corrupt, or double-applied state.

type ackRec struct {
	ts  uint64
	val string
}

type crashImage struct {
	dir   string
	point string
	acked map[string]ackRec
}

// copyDir snapshots every file in src into dst. Files may be appended to
// concurrently; a copy then holds some prefix of the file, exactly like a
// crash mid-write would (logs are append-only, so prefixes are the only
// reachable states).
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue // renamed away mid-copy: a crash there loses it too
			}
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// crashCapture builds a CrashHook that snapshots crash images at
// exponentially spaced hits of every point (1st, 2nd, 4th, 8th, ...), up to
// perPoint images per point, recording the sync-acknowledged state first:
// anything acknowledged before the copy must survive recovery from it.
type crashCapture struct {
	t        testing.TB
	src, dst string
	perPoint int

	mu       sync.Mutex
	ackMu    *sync.Mutex
	acked    map[string]ackRec
	hits     map[string]int
	captured map[string]int
	images   []crashImage
}

func newCrashCapture(t testing.TB, src, dst string, perPoint int, ackMu *sync.Mutex, acked map[string]ackRec) *crashCapture {
	return &crashCapture{
		t: t, src: src, dst: dst, perPoint: perPoint,
		ackMu: ackMu, acked: acked,
		hits: map[string]int{}, captured: map[string]int{},
	}
}

func (c *crashCapture) hook(point string) error {
	c.mu.Lock()
	c.hits[point]++
	h := c.hits[point]
	if c.captured[point] >= c.perPoint || h&(h-1) != 0 {
		c.mu.Unlock()
		return nil
	}
	c.captured[point]++
	n := len(c.images)
	c.images = append(c.images, crashImage{point: point})
	c.mu.Unlock()

	// Snapshot the acknowledged state BEFORE copying: every commit acked
	// by now has its records fsynced (sync commit), so the copy must
	// contain them; commits acked during/after the copy are exempt.
	c.ackMu.Lock()
	snap := make(map[string]ackRec, len(c.acked))
	for k, v := range c.acked {
		snap[k] = v
	}
	c.ackMu.Unlock()
	dst := filepath.Join(c.dst, fmt.Sprintf("img-%03d-%s", n, strings.ReplaceAll(point, "/", "_")))
	copyDir(c.t, c.src, dst)

	c.mu.Lock()
	c.images[n].dir = dst
	c.images[n].acked = snap
	c.mu.Unlock()
	return nil
}

func (c *crashCapture) snapshot() []crashImage {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]crashImage, 0, len(c.images))
	for _, img := range c.images {
		if img.dir != "" {
			out = append(out, img)
		}
	}
	return out
}

// verifyImage recovers one crash image and checks both invariants against
// the global write ledger (key -> value -> commitTS of the writing txn).
func verifyImage(t *testing.T, img crashImage, ledger map[string]map[string]uint64) {
	t.Helper()
	if logs, _ := filepath.Glob(filepath.Join(img.dir, "*.log")); len(logs) != 1 || filepath.Base(logs[0]) != logName {
		t.Fatalf("image %s (%s): log files %v, want exactly %s", img.dir, img.point, logs, logName)
	}
	st, err := Recover(img.dir)
	if err != nil {
		t.Fatalf("image %s (%s): recovery failed: %v", img.dir, img.point, err)
	}
	got := map[string]ackRec{}
	for _, w := range st.Writes {
		got[w.Key.String()] = ackRec{ts: w.CommitTS, val: string(w.Value)}
	}
	for key, want := range img.acked {
		g, ok := got[key]
		if !ok {
			t.Fatalf("image %s: sync-acknowledged commit of %s (ts %d) lost", img.point, key, want.ts)
		}
		if g.ts < want.ts {
			t.Fatalf("image %s: %s recovered at ts %d, older than acknowledged ts %d",
				img.point, key, g.ts, want.ts)
		}
	}
	for key, g := range got {
		ts, ok := ledger[key][g.val]
		if !ok {
			t.Fatalf("image %s: %s recovered torn/foreign value %q", img.point, key, g.val)
		}
		if ts != g.ts {
			t.Fatalf("image %s: %s value %q recovered at ts %d but written at ts %d (double/mis-applied)",
				img.point, key, g.val, g.ts, ts)
		}
	}
}

func TestCrashPointTorture(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	images := t.TempDir()

	var ackMu sync.Mutex
	acked := map[string]ackRec{}
	ledger := map[string]map[string]uint64{} // key -> val -> commitTS
	capt := newCrashCapture(t, dir, images, 3, &ackMu, acked)

	m, err := Open(Options{
		Dir:           dir,
		Shards:        shards,
		EpochInterval: 2 * time.Millisecond,
		SyncCommit:    true,
		CrashHook:     capt.hook,
	})
	if err != nil {
		t.Fatal(err)
	}

	workers, txnsEach := 6, 60
	if testing.Short() {
		workers, txnsEach = 4, 25
	}
	var idSeq, tsSeq atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < txnsEach; i++ {
				id := idSeq.Add(1)
				ts := tsSeq.Add(1)
				val := fmt.Sprintf("t%d", id)
				nKeys := 1 + rng.Intn(2)
				byShard := map[int][]KV{}
				keys := make([]string, 0, nKeys)
				for j := 0; j < nKeys; j++ {
					kidx := rng.Intn(16)
					k := core.Key{Table: "t", Row: fmt.Sprintf("r%d", kidx)}
					byShard[kidx%shards] = append(byShard[kidx%shards], KV{Key: k, Value: []byte(val)})
					keys = append(keys, k.String())
				}
				// Ledger entry first: anything that might reach disk
				// must be accounted for before it can.
				ackMu.Lock()
				for _, k := range keys {
					if ledger[k] == nil {
						ledger[k] = map[string]uint64{}
					}
					ledger[k][val] = ts
				}
				ackMu.Unlock()
				epoch, tk, err := m.Precommit(id, byShard)
				if err != nil {
					continue
				}
				if err := m.Commit(id, ts, epoch, tk); err != nil {
					continue
				}
				if tk.Wait() != nil {
					continue
				}
				// Durable: acknowledged to the client.
				ackMu.Lock()
				for _, k := range keys {
					if cur := acked[k]; ts > cur.ts {
						acked[k] = ackRec{ts: ts, val: val}
					}
				}
				ackMu.Unlock()
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	imgs := capt.snapshot()
	if len(imgs) == 0 {
		t.Fatal("no crash images captured")
	}
	points := map[string]bool{}
	for _, img := range imgs {
		points[img.point] = true
		verifyImage(t, img, ledger)
	}
	for _, p := range []string{"append", "flush"} {
		if !points[p] {
			t.Errorf("no crash image captured at the %q boundary", p)
		}
	}
	t.Logf("verified %d crash images across points %v", len(imgs), points)
}
