// Package core defines the foundational types of the Tebaldi transactional
// key-value store: keys, transactions, multiversioned value chains, the
// concurrency-control (CC) tree, and the CC mechanism interface that every
// federated protocol implements.
//
// The package deliberately contains no policy: concrete CC mechanisms live in
// internal/cc/*, and the four-phase / two-pass execution protocol that drives
// them lives in internal/engine.
package core

import "strconv"

// Key identifies a row in a table. Tebaldi is a transactional key-value store
// with a thin table veneer: the table name participates in Runtime
// Pipelining's static analysis (tables are the unit of step ordering), while
// (Table, Row) together address one multiversioned value chain.
type Key struct {
	Table string
	Row   string
}

// String renders the key as "table/row".
func (k Key) String() string { return k.Table + "/" + k.Row }

// K is a convenience constructor for Key.
func K(table, row string) Key { return Key{Table: table, Row: row} }

// KeyOf builds a row key from integer components, the common case for the
// TPC-C and SEATS workloads (e.g. KeyOf("district", 3, 7) -> "district/3.7").
func KeyOf(table string, parts ...int) Key {
	var buf [24]byte
	b := buf[:0]
	for i, p := range parts {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	return Key{Table: table, Row: string(b)}
}

// Hash is an allocation-free 64-bit hash of the key: FNV-1a over
// "table/row", finished with murmur3's 64-bit mixer so that every bit
// depends on every input byte. It is the one placement hash: storage and
// lockmgr both shard by this hash, taking the shard from its high bits, and
// storage's chain index probes from its low bits.
func (k Key) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.Table); i++ {
		h ^= uint64(k.Table[i])
		h *= prime64
	}
	h ^= uint64('/')
	h *= prime64
	for i := 0; i < len(k.Row); i++ {
		h ^= uint64(k.Row[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
