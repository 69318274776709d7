// Package sacct is the simulated Slurm accounting database: it stores the
// job and step records produced by the scheduler simulator, serves
// sacct-style field-selectable queries as pipe-separated text, persists and
// reloads dumps, and implements the workflow's "Obtain data" stage —
// month-sharded concurrent retrieval with a cache directory, replacing the
// paper's sacct + GNU Parallel combination.
//
// Stores persist in two formats: the pipe-separated text dump
// (Dump/Load, the sacct-compatible interchange form) and the binary
// columnar shard store (DumpBinary/OpenBinary, see the colstore
// subpackage) whose reload is O(open + footer) and whose scans read only
// the columns a query projects.
package sacct

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slurmsight/internal/sacct/colstore"
	"slurmsight/internal/sched"
	"slurmsight/internal/slurm"
)

// Month identifies one calendar shard.
type Month struct {
	Year int
	Mon  time.Month
}

// MonthOf returns the shard a timestamp belongs to.
func MonthOf(t time.Time) Month { return Month{Year: t.Year(), Mon: t.Month()} }

// String renders "2024-03".
func (m Month) String() string { return fmt.Sprintf("%04d-%02d", m.Year, int(m.Mon)) }

// Start returns the first instant of the month (UTC).
func (m Month) Start() time.Time {
	return time.Date(m.Year, m.Mon, 1, 0, 0, 0, 0, time.UTC)
}

// Next returns the following month.
func (m Month) Next() Month {
	t := m.Start().AddDate(0, 1, 0)
	return MonthOf(t)
}

// Before orders months chronologically.
func (m Month) Before(o Month) bool { return m.Compare(o) < 0 }

// Compare orders months chronologically for the slices sort helpers.
func (m Month) Compare(o Month) int {
	if m.Year != o.Year {
		return m.Year - o.Year
	}
	return int(m.Mon) - int(o.Mon)
}

// ParseMonth parses "2024-03".
func ParseMonth(s string) (Month, error) {
	t, err := time.Parse("2006-01", strings.TrimSpace(s))
	if err != nil {
		return Month{}, fmt.Errorf("sacct: bad month %q", s)
	}
	return MonthOf(t), nil
}

// Store is an in-memory accounting database sharded by submission month.
// Queries, Add, and Finalize may run concurrently: mutators never write
// through record storage a reader could be holding (Finalize sorts into
// a fresh copy and swaps the shard pointer; Add appends past every
// captured length), so a scan started before a mutation sees a
// consistent pre-mutation view of each shard it visits.
//
// A store opened with OpenBinary starts lazy: each month shard stays on
// disk as columns until the first full scan touches it (at which point
// it materialises once and is cached), and projected queries through
// Write decode only the columns the field selection needs.
type Store struct {
	mu     sync.RWMutex
	shards map[Month][]slurm.Record
	sorted map[Month]bool       // shard known to be in recordLess order
	ranges map[Month]shardRange // actual submit extent of materialised shards

	lazy map[Month]*colstore.Shard // binary shards not yet materialised
	bin  *colstore.File            // backing columnar file; nil for text stores

	gen atomic.Uint64 // bumped on every successful logical mutation

	// decWorkers caps concurrent shard decodes (0 = GOMAXPROCS); see
	// SetDecodeWorkers in parallel.go.
	decWorkers atomic.Int32
}

// shardRange is a shard's actual submit extent in unix nanoseconds,
// inclusive on both ends.
type shardRange struct{ min, max int64 }

// extend widens the range to admit t.
func (r shardRange) extend(t time.Time) shardRange {
	ns := t.UnixNano()
	if ns < r.min {
		r.min = ns
	}
	if ns > r.max {
		r.max = ns
	}
	return r
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		shards: map[Month][]slurm.Record{},
		sorted: map[Month]bool{},
		ranges: map[Month]shardRange{},
		lazy:   map[Month]*colstore.Shard{},
	}
}

// Generation returns the store's mutation counter: it advances after
// every Add/Ingest that lands records and every Finalize that reorders a
// shard, and never otherwise. Two reads returning the same value
// bracket a window in which every query answer was stable, which is
// what makes it usable as a response-cache key.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// recordCmp is the shard emission order: submission time, ties broken
// by sacct job-id order (steps after their job). Because the simulator
// assigns job ids in submission order, this coincides with plain job-id
// order for simulated traces while letting queries binary-search the
// submit window.
func recordCmp(a, b slurm.Record) int {
	if !a.Submit.Equal(b.Submit) {
		if a.Submit.Before(b.Submit) {
			return -1
		}
		return 1
	}
	return slurm.CompareJobID(a.ID, b.ID)
}

// recordLess is recordCmp as a less-predicate, for binary searches.
func recordLess(a, b *slurm.Record) bool { return recordCmp(*a, *b) < 0 }

// Add inserts records, sharding by submission month. Adding into a
// month still lazy on disk materialises that shard first so the new
// records land behind the stored ones.
//
// A materialisation failure (a corrupt backing shard) aborts the insert
// at the failing record and returns the decode error: records earlier
// in the batch stay inserted, the failing record and everything after
// it do not, and the corrupt month keeps its on-disk rows visible to
// Months/Len and its error surfacing on every later scan — nothing is
// silently dropped on either side.
func (s *Store) Add(records ...slurm.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	added := false
	for _, r := range records {
		m := MonthOf(r.Submit)
		if _, ok := s.lazy[m]; ok {
			if err := s.materializeLocked(context.Background(), m); err != nil {
				if added {
					s.gen.Add(1)
				}
				return fmt.Errorf("sacct: add into shard %s: %w", m, err)
			}
		}
		if rg, ok := s.ranges[m]; ok {
			s.ranges[m] = rg.extend(r.Submit)
		} else {
			ns := r.Submit.UnixNano()
			s.ranges[m] = shardRange{min: ns, max: ns}
		}
		s.shards[m] = append(s.shards[m], r)
		delete(s.sorted, m)
		added = true
	}
	if added {
		s.gen.Add(1)
	}
	return nil
}

// Ingest loads a complete simulation result (jobs and steps).
func (s *Store) Ingest(res *sched.Result) error {
	if err := s.Add(res.Jobs...); err != nil {
		return err
	}
	return s.Add(res.Steps...)
}

// Finalize puts every materialised shard in emission order (recordCmp).
// Call after ingestion or a batch of Adds. Shards whose records already
// arrived in order — the common case when reloading a Dump — are
// detected with a linear is-sorted check and skipped instead of
// re-sorted. A shard that does need sorting is sorted into a fresh copy
// and swapped in, so concurrent scans holding the old slice keep a
// consistent view. Lazy binary shards are left on disk; they sort (if
// needed) when materialised.
func (s *Store) Finalize() {
	s.mu.Lock()
	defer s.mu.Unlock()
	reordered := false
	for m := range s.shards {
		if s.sorted[m] {
			continue
		}
		shard := s.shards[m]
		if !slices.IsSortedFunc(shard, recordCmp) {
			shard = slices.Clone(shard)
			slices.SortStableFunc(shard, recordCmp)
			s.shards[m] = shard
			reordered = true
		}
		s.sorted[m] = true
	}
	if reordered {
		s.gen.Add(1)
	}
}

// Months returns the populated shards in chronological order, lazy
// binary shards included.
func (s *Store) Months() []Month {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Month, 0, len(s.shards)+len(s.lazy))
	for m := range s.shards {
		out = append(out, m)
	}
	for m := range s.lazy {
		if _, ok := s.shards[m]; !ok {
			out = append(out, m)
		}
	}
	slices.SortFunc(out, Month.Compare)
	return out
}

// Len returns the total record count, counting lazy shards from their
// footers without decoding them.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, shard := range s.shards {
		n += len(shard)
	}
	for m, sh := range s.lazy {
		if _, ok := s.shards[m]; !ok {
			n += sh.Rows()
		}
	}
	return n
}

// snapshot materialises any lazy shards, then returns every populated
// month with its record slice under a single read lock — so a
// concurrent Add cannot interleave between shards mid-iteration. The
// returned slices alias store storage; callers must not mutate them.
func (s *Store) snapshot() ([]Month, [][]slurm.Record, error) {
	if err := s.materializeAll(); err != nil {
		return nil, nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	months := make([]Month, 0, len(s.shards))
	for m := range s.shards {
		months = append(months, m)
	}
	slices.SortFunc(months, Month.Compare)
	shards := make([][]slurm.Record, len(months))
	for i, m := range months {
		shards[i] = s.shards[m]
	}
	return months, shards, nil
}

// Dump writes the full store as pipe-separated text with the complete
// curated field selection, suitable for Load.
func (s *Store) Dump(w io.Writer) error {
	fields := slurm.SelectedNames()
	_, shards, err := s.snapshot()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, slurm.Header(fields)); err != nil {
		return err
	}
	for _, shard := range shards {
		for i := range shard {
			line, err := slurm.EncodeRecord(&shard[i], fields)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintln(bw, line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// DumpFile writes the store to a file atomically: the dump goes to a
// temporary file in the target directory that is renamed into place
// only once complete, so a failed dump leaves any previous file intact.
func (s *Store) DumpFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = s.Dump(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// maxLoadLine bounds one dump row. A row past it fails the load with a
// line-numbered error.
const maxLoadLine = 8 << 20

// Load reads a text Dump back into a store through the shared byte
// record reader. Malformed lines are returned in count; the paper's
// curation stage discards them downstream, so the store keeps only
// clean rows.
func Load(r io.Reader) (*Store, int, error) {
	br, err := slurm.NewByteRecordReaderLimit(r, maxLoadLine)
	if err != nil {
		return nil, 0, fmt.Errorf("sacct: dump header: %w", err)
	}
	st := NewStore()
	malformed := 0
	for rec, err := range br.All() {
		if _, ok := err.(*slurm.RowError); ok {
			malformed++
			continue
		}
		if err != nil {
			return nil, malformed, fmt.Errorf("sacct: load: %w", err)
		}
		if err := st.Add(slurm.Retain(rec)); err != nil {
			// Unreachable for a fresh text store (no lazy shards), but
			// the error is not ours to swallow if that ever changes.
			return nil, malformed, err
		}
	}
	st.Finalize()
	return st, malformed, nil
}

// LoadFile reads a text dump file.
func LoadFile(path string) (*Store, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return Load(f)
}
