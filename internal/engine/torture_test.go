package engine

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
	"repro/internal/wal"
)

// Engine-level crash-point torture: the WAL crash hook is driven through
// the full stack (engine commit protocol + checkpointer), so crash images
// are captured not only at append/flush/seal boundaries but also inside
// checkpoints — the snapshot's publication, the checkpoint marker and the
// log-compaction write/sync/rename. A crash mid-compaction must leave
// either the complete old log or the complete new one; either way every
// sync-acknowledged commit must survive recovery, with no torn or
// double-applied state.

type tortureAck struct {
	ts  uint64
	val string
}

func tortureCopyDir(t testing.TB, src, dst string) {
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

func TestTortureCrashPointsAcrossCheckpoints(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	images := t.TempDir()

	var ackMu sync.Mutex
	acked := map[string]tortureAck{}         // key -> newest acknowledged write
	ledger := map[string]map[string]uint64{} // key -> val -> commitTS (0 = not committed)
	type img struct {
		dir, point string
		acked      map[string]tortureAck
	}
	var imgMu sync.Mutex
	var imgs []img
	hits := map[string]int{}
	captured := map[string]int{}
	const perPoint = 3
	// ckPauseMu serializes appender-side image captures against whole
	// checkpoints: a copy taken from an appender goroutine while the
	// checkpointer concurrently publishes checkpoint n+1 (rename snap-n+1,
	// stage its marker, compact, delete snap-n) could mix files from two
	// checkpoints into a state no single-instant crash can produce.
	// Checkpoint-side points
	// (ck.*/compact.*) fire on the checkpointer goroutine itself, which
	// already holds the lock — the copy there IS a single instant of the
	// checkpoint procedure.
	//
	// Harness lock order: the capture hook takes the bookkeeping mutexes
	// and the checkpointer calls Checkpoint (ckMu, and activeShard.mu
	// transitively) while holding ckPauseMu.
	//
	// tebaldi:locks order engine.ckPauseMu < engine.ackMu
	// tebaldi:locks order engine.ckPauseMu < engine.imgMu
	// tebaldi:locks order engine.ckPauseMu < engine.Engine.ckMu
	var ckPauseMu sync.Mutex
	hook := func(point string) {
		imgMu.Lock()
		hits[point]++
		h := hits[point]
		// Exponentially spaced captures so images sample the whole run,
		// not just its first milliseconds.
		if captured[point] >= perPoint || h&(h-1) != 0 {
			imgMu.Unlock()
			return
		}
		captured[point]++
		n := len(imgs)
		imgs = append(imgs, img{point: point})
		imgMu.Unlock()

		appenderSide := !strings.HasPrefix(point, "ck.") && !strings.HasPrefix(point, "compact.")
		if appenderSide {
			// TryLock, not Lock: the checkpointer holds ckPauseMu while
			// waiting for appender tickets, so an appender-side hook
			// blocking on it would deadlock the pipeline. Skipping the
			// capture (and un-counting it, so a later hit retries) is
			// fine — a crash image is only meaningful at an instant we
			// can reason about.
			//lint:allow unlockpath -- released below under the same appenderSide flag, which cannot change in between
			if !ckPauseMu.TryLock() {
				imgMu.Lock()
				captured[point]--
				imgMu.Unlock()
				return
			}
		}
		ackMu.Lock()
		snap := make(map[string]tortureAck, len(acked))
		for k, v := range acked {
			snap[k] = v
		}
		ackMu.Unlock()
		dst := filepath.Join(images, fmt.Sprintf("img-%03d-%s", n, strings.ReplaceAll(point, "/", "_")))
		tortureCopyDir(t, dir, dst)
		if appenderSide {
			ckPauseMu.Unlock()
		}

		imgMu.Lock()
		imgs[n].dir = dst
		imgs[n].acked = snap
		imgMu.Unlock()
	}

	opts := Options{
		Shards:         shards,
		LockTimeout:    2 * time.Second,
		DurabilityDir:  dir,
		DurabilitySync: true,
		GCPEpoch:       3 * time.Millisecond,
		crashHook:      hook,
	}
	specs := []*core.Spec{{Name: "inc", Tables: []string{"kv"}, WriteTables: []string{"kv"}}}
	e, err := New(opts, specs, G(Kind2PL, []string{"inc"}))
	if err != nil {
		t.Fatal(err)
	}

	workers, txnsEach, checkpoints := 6, 50, 6
	if testing.Short() {
		workers, txnsEach, checkpoints = 4, 20, 3
	}

	// Checkpointer: repeated checkpoints during the workload so the
	// compaction crash points fire while commits race them.
	ckDone := make(chan int)
	stopCK := make(chan struct{})
	go func() {
		ran := 0
		for {
			select {
			case <-stopCK:
				ckDone <- ran
				return
			default:
				ckPauseMu.Lock()
				err := e.Checkpoint()
				ckPauseMu.Unlock()
				if err == nil {
					ran++
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	var attemptSeq atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < txnsEach; i++ {
				key := core.KeyOf("kv", rng.Intn(12))
				var txn *core.Txn
				var val string
				err := e.RunTxn("inc", 0, func(tx *Tx) error {
					txn = txnOf(tx)
					val = fmt.Sprintf("a%d", attemptSeq.Add(1))
					// Ledger entry before the write can reach any log:
					// recovery may surface any attempted value, but
					// only with its writer's true commit timestamp.
					ackMu.Lock()
					if ledger[key.String()] == nil {
						ledger[key.String()] = map[string]uint64{}
					}
					ledger[key.String()][val] = 0
					ackMu.Unlock()
					if _, err := tx.Read(key); err != nil {
						return err
					}
					return tx.Write(key, []byte(val))
				})
				if err != nil {
					continue
				}
				ts := txn.CommitTS()
				ackMu.Lock()
				ledger[key.String()][val] = ts
				if cur := acked[key.String()]; ts > cur.ts {
					acked[key.String()] = tortureAck{ts: ts, val: val}
				}
				ackMu.Unlock()
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	// Keep checkpointing until the compaction crash points fired enough.
	deadline := time.Now().Add(3 * time.Second)
	for {
		imgMu.Lock()
		enough := captured["compact.renamed"] > 0 && captured["ck.frontier"] > 0
		ran := 0
		for _, p := range []string{"ck.snapshot", "ck.frontier"} {
			ran += hits[p]
		}
		imgMu.Unlock()
		if (enough && ran >= checkpoints) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stopCK)
	ranCk := <-ckDone
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if ranCk < 2 {
		t.Fatalf("only %d checkpoints completed — compaction barely exercised", ranCk)
	}

	imgMu.Lock()
	verify := make([]img, 0, len(imgs))
	for _, im := range imgs {
		if im.dir != "" {
			verify = append(verify, im)
		}
	}
	pts := map[string]bool{}
	for p := range captured {
		pts[p] = true
	}
	imgMu.Unlock()
	if len(verify) == 0 {
		t.Fatal("no crash images captured")
	}
	for _, must := range []string{"ck.snapshot", "ck.frontier", "compact.written", "compact.synced", "compact.renamed"} {
		if !pts[must] {
			t.Errorf("no crash image captured at the %q boundary", must)
		}
	}

	for _, im := range verify {
		if logs, _ := filepath.Glob(filepath.Join(im.dir, "*.log")); len(logs) != 1 || filepath.Base(logs[0]) != "wal.log" {
			t.Fatalf("image %s (%s): log files %v, want exactly wal.log", im.dir, im.point, logs)
		}
		st, err := wal.Recover(im.dir)
		if err != nil {
			t.Fatalf("image %s (%s): recovery failed: %v", im.dir, im.point, err)
		}
		got := map[string]tortureAck{}
		for _, w := range st.Writes {
			got[w.Key.String()] = tortureAck{ts: w.CommitTS, val: string(w.Value)}
		}
		for key, want := range im.acked {
			g, ok := got[key]
			if !ok {
				t.Fatalf("image %s: sync-acknowledged commit of %s (ts %d) lost (crash %s left neither old nor new state)",
					im.point, key, want.ts, im.point)
			}
			if g.ts < want.ts {
				t.Fatalf("image %s: %s recovered at ts %d, older than acknowledged ts %d",
					im.point, key, g.ts, want.ts)
			}
		}
		for key, g := range got {
			ts, ok := ledger[key][g.val]
			if !ok {
				t.Fatalf("image %s: %s recovered torn/foreign value %q", im.point, key, g.val)
			}
			if ts == 0 {
				t.Fatalf("image %s: %s recovered value %q from a transaction that never committed",
					im.point, key, g.val)
			}
			if ts != g.ts {
				t.Fatalf("image %s: %s value %q recovered at ts %d but committed at ts %d (double/mis-applied)",
					im.point, key, g.val, g.ts, ts)
			}
		}
	}
	t.Logf("verified %d crash images (%d checkpoints) across points %v", len(verify), ranCk, pts)
}

// TestRecoverFromMidCompactionImage pins the old-log-or-new-log guarantee
// deterministically: capture exactly one image before the compaction rename
// and one after, and recover both into full engines.
func TestRecoverFromMidCompactionImage(t *testing.T) {
	dir := t.TempDir()
	images := t.TempDir()
	var imgMu sync.Mutex
	caught := map[string]string{}
	hook := func(point string) {
		if point != "compact.synced" && point != "compact.renamed" {
			return
		}
		imgMu.Lock()
		defer imgMu.Unlock()
		if _, ok := caught[point]; ok {
			return
		}
		dst := filepath.Join(images, strings.ReplaceAll(point, "/", "_"))
		tortureCopyDir(t, dir, dst)
		caught[point] = dst
	}
	opts := Options{
		Shards:         2,
		LockTimeout:    2 * time.Second,
		DurabilityDir:  dir,
		DurabilitySync: true,
		GCPEpoch:       5 * time.Millisecond,
		crashHook:      hook,
	}
	specs := []*core.Spec{{Name: "put", Tables: []string{"kv"}, WriteTables: []string{"kv"}}}
	e, err := New(opts, specs, G(Kind2PL, []string{"put"}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		k := core.KeyOf("kv", i%10)
		v := fmt.Sprintf("v%d", i)
		if err := e.RunTxn("put", 0, func(tx *Tx) error { return tx.Write(k, []byte(v)) }); err != nil {
			t.Fatal(err)
		}
		want[k.String()] = v
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	imgMu.Lock()
	pre, post := caught["compact.synced"], caught["compact.renamed"]
	imgMu.Unlock()
	if pre == "" || post == "" {
		t.Fatalf("missing compaction images: %v", caught)
	}
	for name, im := range map[string]string{"old log (pre-rename)": pre, "new log (post-rename)": post} {
		opts2 := opts
		opts2.DurabilityDir = im
		opts2.crashHook = nil
		e2, _, err := Recover(opts2, specs, G(Kind2PL, []string{"put"}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k, v := range want {
			row := strings.TrimPrefix(k, "kv/")
			if got := string(e2.ReadCommitted(core.Key{Table: "kv", Row: row})); got != v {
				t.Fatalf("%s: %s = %q, want %q", name, k, got, v)
			}
		}
		e2.Close()
	}
}
