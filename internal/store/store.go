// Package store is a content-addressed, file-backed persistent cache of
// simulation results. It extends the in-process result cache
// (internal/sweep) across restarts and across processes: the key is a
// digest of the same normalized Config that keys the in-memory cache plus a
// structural fingerprint of the network, so any two processes that would
// coalesce a request in memory address the same record on disk.
//
// Layout and durability model:
//
//   - One record per file, DIR/<sha256-hex>.rec, written to a temp file in
//     the same directory and renamed into place. Rename is atomic on POSIX
//     filesystems, so concurrent replicas sharing DIR never observe a
//     half-written record — the worst race is both simulating the same
//     config once and one rename winning, which is correct (results are
//     deterministic functions of the key).
//   - Each record carries a fixed envelope — magic, payload length, CRC32 —
//     ahead of a versioned JSON payload. Open validates every record and
//     skips (never fails on) anything truncated, corrupt, or from a
//     different format version: a crashed writer or a bad disk costs one
//     record, not the store.
//
// The store persists only results that are pure functions of the key:
// configurations carrying a Custom policy are never written (a different
// binary could register different decisions under the same policy name),
// and the sweep engine additionally skips its oracle structure probes,
// which carry allocator state that is not meaningful across processes.
package store

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"crypto/sha256"

	"vdnn/internal/core"
	"vdnn/internal/dnn"
)

const (
	// magic identifies a vDNN store record, version baked into the string:
	// bumping the on-disk envelope means a new magic, and old files are
	// skipped as corrupt rather than misread.
	magic = "vDNNsto1"

	// recordVersion is the payload schema version inside the envelope.
	recordVersion = 1

	// keyDomain prefixes every key hash so store keys can never collide
	// with any other sha256 use, and bumping it invalidates all keys.
	keyDomain = "vdnn-store-key-v1\n"

	// maxPayload bounds a record's JSON payload; anything claiming more is
	// corrupt by definition (a full CaptureSchedule result is ~single-digit
	// MB).
	maxPayload = 64 << 20

	headerSize = len(magic) + 4 + 4 // magic + payload length + CRC32
)

// record is the versioned JSON payload of one store file. Network, Batch
// and Policy duplicate information already hashed into the key; they make
// records self-describing for offline inspection (jq over the store dir).
type record struct {
	Version   int          `json:"version"`
	Key       string       `json:"key"`
	Network   string       `json:"network"`
	Batch     int          `json:"batch"`
	Policy    string       `json:"policy"`
	SavedUnix int64        `json:"saved_unix"`
	Result    *core.Result `json:"result"`
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	// Records is the number of valid records: counted at Open, incremented
	// by local writes (a second replica's writes are not observed until
	// reopen).
	Records int64 `json:"records"`
	// Hits and Misses count read-through lookups.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Writes counts successful write-throughs; WriteErrors failed ones
	// (write failure is logged, never propagated — the result is still
	// served from memory).
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	// CorruptSkipped counts records skipped for failing validation, at Open
	// or during reads.
	CorruptSkipped int64 `json:"corrupt_skipped"`
}

// Store is a persistent result store rooted at one directory. All methods
// are safe for concurrent use, including by multiple processes sharing the
// directory.
type Store struct {
	dir string
	log *slog.Logger

	records     atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	writes      atomic.Int64
	writeErrors atomic.Int64
	corrupt     atomic.Int64
}

// Option configures Open.
type Option func(*Store)

// WithLogger routes the store's skip/error logs to l (default: discard).
func WithLogger(l *slog.Logger) Option {
	return func(s *Store) {
		if l != nil {
			s.log = l
		}
	}
}

// Open opens (creating if needed) the store rooted at dir and validates
// every record in it. Invalid records — truncated, bad checksum, wrong
// version — are counted, logged and skipped; they are never fatal and never
// served.
func Open(dir string, opts ...Option) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, log: slog.New(slog.DiscardHandler)}
	for _, o := range opts {
		o(s)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".rec") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		key := strings.TrimSuffix(e.Name(), ".rec")
		if _, err := s.readRecord(path, key); err != nil {
			s.corrupt.Add(1)
			s.log.Warn("store: skipping invalid record", "file", e.Name(), "err", err)
			continue
		}
		s.records.Add(1)
	}
	s.log.Info("store: opened", "dir", dir,
		"records", s.records.Load(), "skipped", s.corrupt.Load())
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Records:        s.records.Load(),
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Writes:         s.writes.Load(),
		WriteErrors:    s.writeErrors.Load(),
		CorruptSkipped: s.corrupt.Load(),
	}
}

// --- keys -------------------------------------------------------------------

// Key returns the store key for simulating net under cfg, or ok=false if
// the configuration cannot be addressed persistently (custom policies: a
// policy object's decisions are not recoverable from its name by another
// process). The key hashes the network's structure — not its registry name
// alone — plus the normalized Config, mirroring exactly what the in-memory
// result cache keys on.
func Key(net *dnn.Network, cfg core.Config) (string, bool) {
	if cfg.Custom != nil {
		return "", false
	}
	cfgJSON, err := json.Marshal(cfg.WithDefaults())
	if err != nil {
		return "", false
	}
	h := sha256.New()
	io.WriteString(h, keyDomain)
	io.WriteString(h, dnn.Fingerprint(net))
	h.Write([]byte{0})
	h.Write(cfgJSON)
	return hex.EncodeToString(h.Sum(nil)), true
}

// --- read path --------------------------------------------------------------

// Load is the sweep.ResultStore read-through: it returns the stored result
// for (net, cfg) if a valid record exists.
func (s *Store) Load(net *dnn.Network, cfg core.Config) (*core.Result, bool) {
	key, ok := Key(net, cfg)
	if !ok {
		return nil, false
	}
	return s.Get(key)
}

// Get returns the result stored under key, or ok=false on a miss. A corrupt
// record reads as a miss (counted and logged), so a replica can always fall
// back to simulating.
func (s *Store) Get(key string) (*core.Result, bool) {
	rec, err := s.readRecord(filepath.Join(s.dir, key+".rec"), key)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.corrupt.Add(1)
			s.log.Warn("store: skipping invalid record", "key", key, "err", err)
		}
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return rec.Result, true
}

// readRecord reads and fully validates one record file. wantKey guards
// against renamed/copied files serving the wrong result.
func (s *Store) readRecord(path, wantKey string) (*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("short header: %w", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("bad magic %q", hdr[:len(magic)])
	}
	n := binary.LittleEndian.Uint32(hdr[len(magic):])
	sum := binary.LittleEndian.Uint32(hdr[len(magic)+4:])
	if n == 0 || n > maxPayload {
		return nil, fmt.Errorf("implausible payload length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(f, payload); err != nil {
		return nil, fmt.Errorf("truncated payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("checksum mismatch: %08x != %08x", got, sum)
	}
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("payload: %w", err)
	}
	if rec.Version != recordVersion {
		return nil, fmt.Errorf("record version %d, want %d", rec.Version, recordVersion)
	}
	if wantKey != "" && rec.Key != wantKey {
		return nil, fmt.Errorf("key mismatch: record %.16s... under file %.16s...", rec.Key, wantKey)
	}
	if rec.Result == nil {
		return nil, errors.New("record without result")
	}
	return &rec, nil
}

// --- write path -------------------------------------------------------------

// Save is the sweep.ResultStore write-through: it persists the result of
// simulating (net, cfg). Write failures are logged and counted, never
// returned — persistence is strictly an optimization.
func (s *Store) Save(net *dnn.Network, cfg core.Config, res *core.Result) {
	key, ok := Key(net, cfg)
	if !ok || res == nil {
		return
	}
	rec := record{
		Version:   recordVersion,
		Key:       key,
		Network:   net.Name,
		Batch:     net.Batch,
		Policy:    res.PolicyName,
		SavedUnix: time.Now().Unix(),
		Result:    res,
	}
	if err := s.put(key, rec); err != nil {
		s.writeErrors.Add(1)
		s.log.Warn("store: write failed", "key", key, "err", err)
	}
}

// put atomically writes rec under key: temp file in the store directory,
// then rename. Concurrent writers (other goroutines or other processes) are
// safe; last rename wins with an identical, complete record.
func (s *Store) put(key string, rec record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[len(magic)+4:], crc32.ChecksumIEEE(payload))

	f, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(hdr); err == nil {
		_, err = f.Write(payload)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dst := filepath.Join(s.dir, key+".rec")
	_, statErr := os.Stat(dst)
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return err
	}
	s.writes.Add(1)
	if errors.Is(statErr, fs.ErrNotExist) {
		s.records.Add(1)
	}
	return nil
}
