// Durability example: commit transactions with write-ahead logging and
// asynchronous GCP-epoch flushing (§4.5.4), simulate a crash by discarding
// the in-memory state, and recover the database from the logs — verifying
// that every durable transaction survived with its latest committed value.
// Then checkpoint: rewrite the log as a snapshot of the committed state
// followed by the records the snapshot does not cover, and show that the
// next restart is bounded — it replays only the post-checkpoint tail instead
// of the whole history. The program exits non-zero if a write is lost.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"time"

	"repro/tebaldi"
)

func val(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func num(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func main() {
	dir, err := os.MkdirTemp("", "tebaldi-durability-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	specs := []*tebaldi.Spec{
		{Name: "put", Tables: []string{"kv"}, WriteTables: []string{"kv"}},
	}
	opts := tebaldi.Options{
		DurabilityDir: dir,
		GCPEpoch:      20 * time.Millisecond,
	}
	cfg := tebaldi.Leaf(tebaldi.TwoPL, "put")

	db, err := tebaldi.Open(opts, specs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		i := i
		err := db.Run("put", 0, func(tx *tebaldi.Tx) error {
			return tx.Write(tebaldi.KeyOf("kv", i), val(uint64(i)*3))
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	// Wait for the asynchronous flusher to seal the epoch, then "crash"
	// (drop all in-memory state; the logs remain on disk).
	epoch := db.Engine().Wal().Epoch()
	if err := db.Engine().Wal().WaitDurable(epoch); err != nil {
		log.Fatal(err)
	}
	db.Close()
	fmt.Printf("committed %d transactions, durable through epoch %d; simulating crash...\n", n, epoch)

	// Recovery: rebuild the database from the write-ahead logs.
	db2, state, err := tebaldi.Recover(opts, specs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	fmt.Printf("recovered %d committed transactions (%d discarded by the GCP/2PC rules)\n",
		state.Committed, state.Discarded)

	missing := 0
	for i := 0; i < n; i++ {
		if got := num(db2.ReadCommitted(tebaldi.KeyOf("kv", i))); got != uint64(i)*3 {
			missing++
		}
	}
	if missing > 0 {
		log.Fatalf("%d durable writes lost", missing)
	}
	fmt.Println("all durable writes recovered correctly")

	// Checkpoint: snapshot the committed state at a consistent cut into the
	// log, in place of the history it covers. The next restart loads the
	// snapshot and replays only records committed after it — bounded
	// restart, however long the database has been running.
	before := logBytes(db2)
	if err := db2.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: log %d -> %d bytes, which hold the snapshot and the records after it\n",
		before, logBytes(db2))
	for i := 0; i < 50; i++ { // a short tail after the checkpoint
		i := i
		if err := db2.Run("put", 0, func(tx *tebaldi.Tx) error {
			return tx.Write(tebaldi.KeyOf("kv", i), val(uint64(i)*7))
		}); err != nil {
			log.Fatal(err)
		}
	}
	db2.Close()

	start := time.Now()
	db3, state, err := tebaldi.Recover(opts, specs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db3.Close()
	fmt.Printf("bounded restart in %v: snapshot seeded %d keys, replayed %d tail records\n",
		time.Since(start).Round(time.Millisecond), state.SnapshotKeys, state.Replayed)
	for i := 0; i < 50; i++ {
		if got := num(db3.ReadCommitted(tebaldi.KeyOf("kv", i))); got != uint64(i)*7 {
			log.Fatalf("tail write kv/%d lost", i)
		}
	}
	fmt.Println("post-checkpoint tail recovered correctly")
}

// logBytes is the log's logical size. While the database is open the file is
// longer: the store keeps zeroed space allocated past the last record.
func logBytes(db *tebaldi.DB) int64 {
	n, err := db.Engine().Wal().LogBytes()
	if err != nil {
		log.Fatal(err)
	}
	return n
}
