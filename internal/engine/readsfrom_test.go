package engine

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// TestRecoveredStateClosedUnderReadsFrom: a recovered transaction's reads
// are recovered too. A writes x and is held right after its commit point; B
// reads x from A, writes y = x and is acknowledged — by its sync commit, or
// by WaitDurable on its GCP epoch — while A is still held. The directory is
// copied the moment B returns: a crash at that instant. Recovering the copy
// must restore x whenever it restores y's value.
func TestRecoveredStateClosedUnderReadsFrom(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sync  bool
		epoch time.Duration
	}{
		{"sync-commit", true, time.Hour},
		{"gcp-epoch", false, time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			held := make(chan struct{})
			holds := 0
			opts := Options{
				LockTimeout:    time.Second,
				DurabilityDir:  dir,
				DurabilitySync: tc.sync,
				GCPEpoch:       tc.epoch,
				afterCommitPoint: func() {
					// Only A's commit runs before B starts, so only A
					// is held; the timer releases it.
					if holds++; holds == 1 {
						close(held)
						<-time.After(30 * time.Millisecond)
					}
				},
			}
			specs := []*core.Spec{{Name: "rw", Tables: []string{"kv"}, WriteTables: []string{"kv"}}}
			e, err := New(opts, specs, G(KindSSI, []string{"rw"}))
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			x, y := core.K("kv", "x"), core.K("kv", "y")

			aDone := make(chan error, 1)
			go func() {
				aDone <- e.RunTxn("rw", 0, func(tx *Tx) error { return tx.Write(x, []byte("1")) })
			}()
			<-held
			var read string
			err = e.RunTxn("rw", 0, func(tx *Tx) error {
				v, err := tx.Read(x)
				if err != nil {
					return err
				}
				read = string(v)
				return tx.Write(y, v)
			})
			if err == nil && !tc.sync {
				err = e.Wal().WaitDurable(e.Wal().Epoch())
			}
			if err != nil {
				t.Fatal(err)
			}
			crash := t.TempDir()
			tortureCopyDir(t, dir, crash)
			if err := <-aDone; err != nil {
				t.Fatal(err)
			}
			if read != "1" {
				t.Fatalf("B read x = %q, not A's write: the hold did not expose A", read)
			}

			st, err := wal.Recover(crash)
			if err != nil {
				t.Fatal(err)
			}
			got := map[core.Key]string{}
			for _, w := range st.Writes {
				got[w.Key] = string(w.Value)
			}
			if got[y] != "1" {
				t.Fatalf("acknowledged B lost: recovered y = %q", got[y])
			}
			if got[x] != "1" {
				t.Fatalf("recovered y = %q, read from A's x, but x = %q: not closed under reads-from", got[y], got[x])
			}
		})
	}
}
