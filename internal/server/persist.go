// The daemon's durable-state layer: rescache entries persisted through
// internal/wal so a restarted daemon answers warm. The contract:
//
//   - append on fill: a successful, cacheable fill is journaled before
//     the entry is inserted, so every retained entry is (best-effort)
//     durable; a persistence failure never fails the request — the
//     response is served and the failure is counted;
//   - replay on boot: OpenState replays the log and seeds the cache
//     before the daemon accepts traffic; seeded entries answer with
//     `Delinq-Cache: warm` and byte-identical bodies;
//   - never persist poison: errors, recovered panics (rescache.PanicError)
//     and degraded renders are not cacheable, so the append wrapper
//     never sees them — a poisoned fill cannot cross a restart;
//   - eviction compacts: the cache's eviction hook counts dead log
//     records, and once enough accumulate the log is rewritten from the
//     live LRU snapshot (atomic rename, next generation).
//
// One benign race is accepted: a fill that lands between the compaction
// snapshot and its rename is journaled in the old log and lost by the
// rename. The entry stays served from memory and simply recomputes
// after the next restart — cold, never corrupt.
package server

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"delinq/internal/rescache"
	"delinq/internal/wal"
)

// stateFile is the rescache log's name inside Config.StateDir.
const stateFile = "rescache.wal"

// defaultCompactDead is how many dead (evicted or superseded) records
// the log tolerates before a compaction rewrites it.
const defaultCompactDead = 64

// stateStore owns the daemon's durable rescache log.
type stateStore struct {
	wal         *wal.Store
	compactDead int64 // test-overridable threshold

	compactMu sync.Mutex  // one compaction at a time
	booting   atomic.Bool // true during boot replay seeding

	dead         atomic.Int64 // dead records since the last compaction
	appendErrs   atomic.Int64
	compactions  atomic.Int64
	replayed     atomic.Int64 // entries seeded at boot
	badDecode    atomic.Int64 // replayed records that failed to decode
	seedEvicted  atomic.Int64 // entries evicted while seeding (caps smaller than log)
	quarantined  atomic.Int64 // from replay stats
	tornTail     atomic.Int64 // 1 if boot recovery dropped a torn tail
	bootCompacts atomic.Int64 // compactions forced by a dirty boot
}

// OpenState attaches durable state under cfg.StateDir: it replays the
// log, seeds the result cache, and arranges for fills to be journaled
// from here on. Call it after New and before serving traffic; it is a
// no-op when StateDir is empty. Damaged state never
// fails the open — recovery drops or quarantines what it cannot trust
// and those entries recompute — so an error here is a real I/O problem
// (permissions, disk) that the operator must see.
func (s *Server) OpenState() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("state dir: %w", err)
	}
	st := &stateStore{compactDead: defaultCompactDead}

	// The eviction hook must be live before seeding so evictions during
	// replay (a log grown past the configured caps) are counted as dead
	// records like any other eviction.
	s.cache.SetOnEvict(func(string, *cachedResponse) {
		st.dead.Add(1)
		st.seedEvictedIfBooting()
	})

	w, entries, rst, err := wal.Open(filepath.Join(s.cfg.StateDir, stateFile), wal.Options{Name: "rescache"})
	if err != nil {
		return err
	}
	st.wal = w
	if rst.TornTail {
		st.tornTail.Store(1)
	}
	st.quarantined.Store(int64(rst.Quarantined))

	st.booting.Store(true)
	for _, e := range entries {
		cr, ok := decodeCachedResponse(e.Val)
		if !ok {
			st.badDecode.Add(1)
			continue
		}
		if s.cache.Seed(e.Key, cr) {
			st.replayed.Add(1)
		}
	}
	st.booting.Store(false)

	// A dirty boot (torn tail, quarantined regions, undecodable values,
	// or a log larger than the caps) leaves dead bytes: rewrite once now
	// so the steady state starts clean.
	if rst.Dirty() || st.badDecode.Load() > 0 || st.seedEvicted.Load() > 0 {
		if err := st.compact(s.cache); err == nil {
			st.bootCompacts.Add(1)
		}
	}

	s.state = st
	s.registerStateMetrics()
	return nil
}

// booting marks the replay-seeding window so the eviction hook can
// attribute evictions to replay.
func (st *stateStore) seedEvictedIfBooting() {
	if st.booting.Load() {
		st.seedEvicted.Add(1)
	}
}

// persist journals one filled response. Failures are counted, never
// propagated: durability is best-effort per request.
func (st *stateStore) persist(key string, cr *cachedResponse) {
	if err := st.wal.Append(key, encodeCachedResponse(cr)); err != nil {
		st.appendErrs.Add(1)
	}
}

// maybeCompact rewrites the log from the live cache snapshot once
// enough dead records have accumulated.
func (st *stateStore) maybeCompact(c *rescache.Cache[*cachedResponse]) {
	if st.dead.Load() < st.compactDead {
		return
	}
	st.compact(c)
}

func (st *stateStore) compact(c *rescache.Cache[*cachedResponse]) error {
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	items := c.Items()
	entries := make([]wal.Entry, len(items))
	for i, it := range items {
		entries[i] = wal.Entry{Key: it.Key, Val: encodeCachedResponse(it.Val)}
	}
	if err := st.wal.Compact(entries); err != nil {
		return err
	}
	st.dead.Store(0)
	st.compactions.Add(1)
	return nil
}

// close syncs and closes the log (the shutdown path).
func (st *stateStore) close() {
	if st != nil && st.wal != nil {
		st.wal.Close()
	}
}

// registerStateMetrics publishes the durable-state telemetry.
func (s *Server) registerStateMetrics() {
	st := s.state
	gauge := func(name string, f func() int64) { s.reg.Gauge(name, f) }
	gauge("delinq_state_enabled", func() int64 { return 1 })
	gauge("delinq_state_log_bytes", func() int64 { return st.wal.Size() })
	gauge("delinq_state_generation", func() int64 { return int64(st.wal.Generation()) })
	gauge("delinq_state_replayed_entries", st.replayed.Load)
	gauge("delinq_state_bad_decode_total", st.badDecode.Load)
	gauge("delinq_state_quarantined_total", st.quarantined.Load)
	gauge("delinq_state_torn_tail", st.tornTail.Load)
	gauge("delinq_state_append_errors_total", st.appendErrs.Load)
	gauge("delinq_state_compactions_total", st.compactions.Load)
	gauge("delinq_state_dead_records", st.dead.Load)
}

// --- cachedResponse wire format -------------------------------------------
//
//	v1 := 0x01 ctLen4 contentType body
//
// Degraded renders are never cacheable, hence never persisted, so the
// format carries no degraded field; decode rejects anything it does not
// fully understand and the entry recomputes.

const persistVersion = 1

func encodeCachedResponse(cr *cachedResponse) []byte {
	b := make([]byte, 0, 5+len(cr.contentType)+len(cr.body))
	b = append(b, persistVersion)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(cr.contentType)))
	b = append(b, n[:]...)
	b = append(b, cr.contentType...)
	b = append(b, cr.body...)
	return b
}

func decodeCachedResponse(b []byte) (*cachedResponse, bool) {
	if len(b) < 5 || b[0] != persistVersion {
		return nil, false
	}
	ctLen := binary.LittleEndian.Uint32(b[1:5])
	if int64(ctLen) > int64(len(b)-5) {
		return nil, false
	}
	ct := string(b[5 : 5+ctLen])
	if ct == "" {
		return nil, false
	}
	body := append([]byte(nil), b[5+ctLen:]...)
	return &cachedResponse{contentType: ct, body: body}, true
}
