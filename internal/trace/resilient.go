package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync/atomic"
	"time"

	"jobgraph/internal/obs"
	"jobgraph/internal/taskname"
)

// Mode selects how the streaming readers treat malformed rows.
type Mode int

const (
	// Strict aborts the read on the first malformed row — the zero
	// value, preserving the historical fail-fast behaviour.
	Strict Mode = iota
	// Lenient skips malformed rows (tallying them by ErrClass and
	// optionally quarantining the raw bytes) until the error budget is
	// exhausted, and recovers the rows already parsed when the input
	// stream is truncated mid-file.
	Lenient
)

func (m Mode) String() string {
	if m == Lenient {
		return "lenient"
	}
	return "strict"
}

// ErrClass classifies why a row was rejected. The classes drive the
// per-class obs counters (trace.bad_rows.<table>.<class>) and the
// ingest-health report of cmd/tracecheck.
type ErrClass string

const (
	// ErrClassCSV is a structural CSV defect: bare quote, unterminated
	// quoted field, and similar syntax errors.
	ErrClassCSV ErrClass = "csv_syntax"
	// ErrClassColumns is a row with the wrong number of fields.
	ErrClassColumns ErrClass = "column_count"
	// ErrClassNumeric is a numeric field that fails to parse.
	ErrClassNumeric ErrClass = "numeric_parse"
	// ErrClassNonFinite is a numeric field carrying NaN or ±Inf —
	// strconv.ParseFloat accepts them, resource statistics do not.
	ErrClassNonFinite ErrClass = "non_finite"
	// ErrClassValidation is a row that parses but fails the record's
	// Validate semantic checks.
	ErrClassValidation ErrClass = "validation"
)

// ReadOptions configures one streaming read. The zero value is Strict
// with no budget and no quarantine — the historical behaviour, decoded
// across all CPUs (see Workers).
type ReadOptions struct {
	Mode Mode

	// MaxBadRows is the absolute error budget in Lenient mode: the
	// read aborts with a *BudgetError as soon as more than this many
	// rows have been rejected. 0 means unlimited.
	MaxBadRows int64

	// MaxBadRatio bounds rejected/(parsed+rejected) in Lenient mode;
	// 0 disables the check. The ratio is enforced at end of stream,
	// and mid-stream once ratioMinRows records have been seen so a
	// hopeless file aborts early instead of after millions of rows.
	MaxBadRatio float64

	// Quarantine, when non-nil in Lenient mode, receives every
	// rejected row: one '#' provenance comment (table, line, byte
	// offset, class, error) followed by the record's verbatim bytes.
	// Re-read a quarantine file by setting csv.Reader.Comment = '#'.
	Quarantine io.Writer

	// Workers bounds the parallel shard decoders: <=0 uses GOMAXPROCS,
	// 1 forces the single-threaded decoder, and larger values fan the
	// table out across that many parsers. Every observable output —
	// record stream, stats, quarantine sidecar, error values — is
	// identical at every worker count; Workers=1 is bit-for-bit the
	// historical sequential read.
	Workers int

	// WrapReader, when non-nil, wraps the decompressed byte stream
	// before decoding — the hook fault injectors (internal/faultinject)
	// use to exercise truncation, corruption and stall paths against
	// the full reader stack without fixtures on disk.
	WrapReader func(io.Reader) io.Reader

	// Arena, when non-nil, interns task and job names of accepted
	// records into symbols (TaskRecord.TaskSym/JobSym), replaces the
	// retained strings with the arena's canonical copies, and
	// canonicalizes Status to the package constants — so accepted
	// records stop pinning the per-record CSV backing strings. Interning
	// happens at the serialized delivery point shared by the sequential
	// and parallel decoders, so symbol numbering is identical at every
	// worker count.
	Arena *taskname.Arena
}

// ratioMinRows is the minimum number of records before MaxBadRatio is
// enforced mid-stream; below it one early bad row would dominate the
// ratio.
const ratioMinRows = 1000

// maxLoggedBadRows bounds the per-read slog noise: the first few
// rejects are logged individually, the rest only appear in the tallies.
const maxLoggedBadRows = 10

// ReadStats describes the health of one streaming read.
type ReadStats struct {
	// Rows is the number of records delivered to the callback.
	Rows int64
	// BadRows is the number of records rejected (Lenient) or the
	// single record that aborted the read (Strict).
	BadRows int64
	// ByClass tallies rejected rows by error class.
	ByClass map[ErrClass]int64
	// ZeroedFields counts non-finite numeric fields that were zeroed
	// in Lenient mode; the owning rows were kept.
	ZeroedFields int64
	// Quarantined counts rows written to the quarantine sidecar.
	Quarantined int64
	// ReopenedJobs counts jobs a ForEachJob stream emitted more than
	// once because their rows reappeared after the bounded job window
	// had already flushed them (out-of-order traces only).
	ReopenedJobs int64
	// Partial reports that the input ended early — truncated or
	// corrupt gzip tail — and the rows read up to that point were
	// delivered anyway (Lenient mode only).
	Partial bool
	// PartialCause is the stream error behind Partial.
	PartialCause error
}

// Classes returns the tallied error classes in sorted order.
func (s *ReadStats) Classes() []ErrClass {
	out := make([]ErrClass, 0, len(s.ByClass))
	for c := range s.ByClass {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Summary renders the stats as one log-friendly line.
func (s *ReadStats) Summary() string {
	msg := fmt.Sprintf("rows=%d bad=%d", s.Rows, s.BadRows)
	for _, c := range s.Classes() {
		msg += fmt.Sprintf(" %s=%d", c, s.ByClass[c])
	}
	if s.ZeroedFields > 0 {
		msg += fmt.Sprintf(" zeroed_fields=%d", s.ZeroedFields)
	}
	if s.Quarantined > 0 {
		msg += fmt.Sprintf(" quarantined=%d", s.Quarantined)
	}
	if s.ReopenedJobs > 0 {
		msg += fmt.Sprintf(" reopened_jobs=%d", s.ReopenedJobs)
	}
	if s.Partial {
		msg += fmt.Sprintf(" partial=true (%v)", s.PartialCause)
	}
	return msg
}

// RowError is a classified per-row failure with accurate provenance:
// Line is the 1-based input line the record starts on (multi-line
// quoted records included), Offset the byte offset of the record start
// in the decompressed stream.
type RowError struct {
	Table  string
	Line   int
	Offset int64
	Class  ErrClass
	Err    error
}

func (e *RowError) Error() string {
	return fmt.Sprintf("trace: %s line %d (byte %d): %s: %v",
		e.Table, e.Line, e.Offset, e.Class, e.Err)
}

func (e *RowError) Unwrap() error { return e.Err }

// BudgetError reports a Lenient read aborted because rejected rows
// exceeded the configured budget. Stats covers everything read up to
// the abort; Last is the rejection that tipped the budget.
type BudgetError struct {
	Table string
	Stats ReadStats
	Last  *RowError
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("trace: %s: error budget exceeded (%s); last: %v",
		e.Table, e.Stats.Summary(), e.Last)
}

func (e *BudgetError) Unwrap() error { return e.Last }

// fieldError is a classified single-field parse failure.
type fieldError struct {
	field string
	class ErrClass
	err   error
}

func (e *fieldError) Error() string { return e.field + ": " + e.err.Error() }
func (e *fieldError) Unwrap() error { return e.err }

// rowCtx threads the leniency mode through the per-row parse
// functions and collects field-level recoveries.
type rowCtx struct {
	lenient   bool
	nonFinite int // non-finite fields zeroed on the current row
}

// classify maps a parse-function error to its ErrClass.
func classify(err error) ErrClass {
	var fe *fieldError
	if errors.As(err, &fe) {
		return fe.class
	}
	var ve *ValidationError
	if errors.As(err, &ve) {
		return ErrClassValidation
	}
	return ErrClassValidation
}

// tableSpec binds one trace table's schema to its parse function and
// volume counters.
type tableSpec[T any] struct {
	name    string
	columns int
	parse   func([]string, *rowCtx) (T, error)
	rowsOK  *obs.Counter
	rowsBad *obs.Counter
}

// rowSink is the per-row bookkeeping shared by the sequential and
// parallel read paths: stats tallies, per-class obs counters, bounded
// logging, quarantine writes and budget enforcement. Keeping it in one
// place guarantees the two decoders cannot drift semantically.
type rowSink struct {
	table         string
	opt           ReadOptions
	lenient       bool
	lg            *slog.Logger
	stats         ReadStats
	rowsOK        *obs.Counter
	rowsBad       *obs.Counter
	rowRate       *obs.RateCounter
	hb            *obs.Heartbeat
	classCounters map[ErrClass]*obs.Counter
	logged        int
}

func newRowSink(table string, opt ReadOptions, rowsOK, rowsBad *obs.Counter) *rowSink {
	s := &rowSink{
		table:   table,
		opt:     opt,
		lenient: opt.Mode == Lenient,
		lg:      obs.Default().Logger(),
		stats:   ReadStats{ByClass: make(map[ErrClass]int64)},
		rowsOK:  rowsOK,
		rowsBad: rowsBad,
		// Windowed rows/s per table: the "is ingest still moving, and how
		// fast right now" signal on /metrics during a multi-minute load.
		rowRate: obs.Default().RateCounter("trace."+table+".rows", obs.DefaultWindow),
		// Per-table ingest liveness for the stall watchdog: beats on
		// every accepted or rejected row, so a reader blocked on a dead
		// transport shows up as an active-but-silent heartbeat.
		hb:            obs.Default().Heartbeat("trace.ingest." + table),
		classCounters: make(map[ErrClass]*obs.Counter),
	}
	// An initial beat arms the heartbeat before the first row, so a
	// stream that stalls before delivering anything is still caught.
	s.hb.Beat()
	return s
}

// done disarms the liveness heartbeat; both decoders call it when the
// read ends, however it ends.
func (s *rowSink) done() { s.hb.Done() }

// zeroed tallies non-finite numeric fields zeroed on the current row.
func (s *rowSink) zeroed(n int) {
	if n <= 0 {
		return
	}
	s.stats.ZeroedFields += int64(n)
	obs.Default().Counter("trace.fields_zeroed_nonfinite").Add(int64(n))
}

// accept books one delivered record; the caller invokes its callback
// immediately after. Keeping the callback out of this method avoids a
// per-row closure allocation on the ingest hot path.
func (s *rowSink) accept() {
	s.stats.Rows++
	s.rowsOK.Add(1)
	s.rowRate.Add(1)
	s.hb.Beat()
}

// reject books one rejected row: tallies, counters, bounded logging,
// quarantine (raw is the record's verbatim bytes, nil when no sidecar
// is configured) and budget enforcement. A non-nil return aborts the
// read: the row error itself in Strict mode, a quarantine I/O failure,
// or a *BudgetError.
func (s *rowSink) reject(rerr *RowError, raw []byte) error {
	s.stats.BadRows++
	s.stats.ByClass[rerr.Class]++
	s.rowsBad.Add(1)
	s.hb.Beat()
	c := s.classCounters[rerr.Class]
	if c == nil {
		c = obs.Default().Counter("trace.bad_rows." + s.table + "." + string(rerr.Class))
		s.classCounters[rerr.Class] = c
	}
	c.Add(1)
	var ve *ValidationError
	if errors.As(rerr.Err, &ve) {
		obs.Default().Counter("trace.validation." + ve.Kind).Add(1)
	}
	if !s.lenient {
		return rerr
	}
	if s.logged < maxLoggedBadRows {
		s.logged++
		s.lg.Warn("malformed row skipped", "table", s.table, "line", rerr.Line,
			"offset", rerr.Offset, "class", rerr.Class, "err", rerr.Err)
		if s.logged == maxLoggedBadRows {
			s.lg.Warn("further malformed rows logged only in tallies", "table", s.table)
		}
	}
	if s.opt.Quarantine != nil {
		if err := writeQuarantine(s.opt.Quarantine, rerr, raw); err != nil {
			return fmt.Errorf("trace: quarantine: %w", err)
		}
		s.stats.Quarantined++
	}
	return checkBudget(s.table, s.opt, &s.stats, rerr, false)
}

// truncated books a mid-file stream death: Lenient keeps the rows read
// so far with a Partial marker, Strict discards them with an error.
func (s *rowSink) truncated(err error, offset int64) error {
	if !s.lenient {
		return fmt.Errorf("trace: %s: truncated input at byte %d: %w", s.table, offset, err)
	}
	s.stats.Partial = true
	s.stats.PartialCause = err
	s.lg.Warn("truncated input, keeping rows read so far",
		"table", s.table, "rows", s.stats.Rows, "offset", offset, "err", err)
	return nil
}

// Whole-read ingest throughput, published per completed read: rows/sec
// over accepted+rejected records and MB/sec over the decompressed bytes
// the decoder consumed. Gauges land in metrics.json and the run ledger
// automatically and are rendered by cmd/runreport.
var (
	obsIngestRowsPerSec = obs.Default().Gauge("trace.ingest.rows_per_sec")
	obsIngestMBPerSec   = obs.Default().Gauge("trace.ingest.mb_per_sec")
)

// countingReader counts the bytes the decoder pulled off the stream.
// The count is atomic: after an early abort the parallel path returns
// while its splitter goroutine may still be inside Read (it can be
// blocked on a stalled source, so it is not joined).
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// readTable is the entry point behind ReadTasks, ReadInstances and
// ReadMachines: it dispatches between the single-threaded decoder and
// the sharded parallel one (see parallel.go) on opt.Workers, and
// publishes whole-read throughput gauges when the read ends.
func readTable[T any](r io.Reader, spec tableSpec[T], opt ReadOptions, fn func(T) error) (ReadStats, error) {
	if opt.WrapReader != nil {
		r = opt.WrapReader(r)
	}
	cnt := &countingReader{r: r}
	start := time.Now()
	var stats ReadStats
	var err error
	if w := resolveWorkers(opt.Workers); w > 1 {
		stats, err = readTableParallel(cnt, spec, opt, w, fn)
	} else {
		stats, err = readTableSeq(cnt, spec, opt, fn)
	}
	if sec := time.Since(start).Seconds(); sec > 0 {
		obsIngestRowsPerSec.Set(int64(float64(stats.Rows+stats.BadRows) / sec))
		obsIngestMBPerSec.Set(int64(float64(cnt.n.Load()) / (1 << 20) / sec))
	}
	return stats, err
}

// readTableSeq is the single-threaded streaming loop: CSV decode,
// classified error handling, budget accounting, quarantine, and
// partial-read recovery.
func readTableSeq[T any](r io.Reader, spec tableSpec[T], opt ReadOptions, fn func(T) error) (ReadStats, error) {
	sink := newRowSink(spec.name, opt, spec.rowsOK, spec.rowsBad)
	defer sink.done()
	var capt *captureReader
	src := r
	if sink.lenient && opt.Quarantine != nil {
		capt = &captureReader{r: r}
		src = capt
	}
	cr := csv.NewReader(src)
	cr.FieldsPerRecord = spec.columns
	cr.ReuseRecord = true
	ctx := &rowCtx{lenient: sink.lenient}

	for {
		start := cr.InputOffset()
		if capt != nil {
			capt.discard(start)
		}
		ctx.nonFinite = 0
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		var rerr *RowError
		if err != nil {
			if IsTruncated(err) {
				// The stream died mid-file; everything parsed so far
				// is intact. Lenient mode keeps it, Strict discards.
				if terr := sink.truncated(err, start); terr != nil {
					return sink.stats, terr
				}
				break
			}
			var pe *csv.ParseError
			if !errors.As(err, &pe) {
				// Non-CSV reader failure (I/O): always fatal — there is
				// no way to resynchronize on the record stream.
				return sink.stats, fmt.Errorf("trace: %s: %w", spec.name, err)
			}
			class := ErrClassCSV
			if errors.Is(err, csv.ErrFieldCount) {
				class = ErrClassColumns
			}
			rerr = &RowError{Table: spec.name, Line: pe.StartLine, Offset: start, Class: class, Err: pe.Err}
		} else {
			rec, perr := spec.parse(row, ctx)
			sink.zeroed(ctx.nonFinite)
			if perr == nil {
				sink.accept()
				if err := fn(rec); err != nil {
					return sink.stats, err
				}
				continue
			}
			line, _ := cr.FieldPos(0)
			rerr = &RowError{Table: spec.name, Line: line, Offset: start, Class: classify(perr), Err: perr}
		}

		var raw []byte
		if capt != nil {
			raw = capt.slice(start, cr.InputOffset())
		}
		if err := sink.reject(rerr, raw); err != nil {
			return sink.stats, err
		}
	}
	if err := checkBudget(spec.name, opt, &sink.stats, nil, true); err != nil {
		return sink.stats, err
	}
	return sink.stats, nil
}

// checkBudget enforces the Lenient error budget; final selects the
// end-of-stream ratio check that also covers short files.
func checkBudget(table string, opt ReadOptions, s *ReadStats, last *RowError, final bool) error {
	if opt.Mode != Lenient || s.BadRows == 0 {
		return nil
	}
	if opt.MaxBadRows > 0 && s.BadRows > opt.MaxBadRows {
		return &BudgetError{Table: table, Stats: *s, Last: last}
	}
	if opt.MaxBadRatio > 0 {
		total := s.Rows + s.BadRows
		if (final || total >= ratioMinRows) &&
			float64(s.BadRows) > opt.MaxBadRatio*float64(total) {
			return &BudgetError{Table: table, Stats: *s, Last: last}
		}
	}
	return nil
}

// writeQuarantine appends one rejected record to the sidecar: a '#'
// provenance comment, then the verbatim row bytes.
func writeQuarantine(w io.Writer, rerr *RowError, raw []byte) error {
	if _, err := fmt.Fprintf(w, "# table=%s line=%d offset=%d class=%s err=%q\n",
		rerr.Table, rerr.Line, rerr.Offset, rerr.Class, rerr.Err.Error()); err != nil {
		return err
	}
	if len(raw) == 0 {
		return nil
	}
	if _, err := w.Write(raw); err != nil {
		return err
	}
	if raw[len(raw)-1] != '\n' {
		_, err := io.WriteString(w, "\n")
		return err
	}
	return nil
}

// captureReader tees the byte stream into a sliding window addressed
// by absolute offset, so the verbatim bytes of a record csv.Reader has
// already consumed can be recovered for quarantine. discard bounds the
// window to the current record plus csv's read-ahead buffer.
type captureReader struct {
	r    io.Reader
	buf  []byte
	base int64 // absolute offset of buf[0]
}

func (c *captureReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.buf = append(c.buf, p[:n]...)
	}
	return n, err
}

// discard drops captured bytes before the absolute offset upTo.
func (c *captureReader) discard(upTo int64) {
	n := upTo - c.base
	if n <= 0 {
		return
	}
	if n >= int64(len(c.buf)) {
		c.base += int64(len(c.buf))
		c.buf = c.buf[:0]
		return
	}
	c.buf = append(c.buf[:0], c.buf[n:]...)
	c.base = upTo
}

// slice copies the captured bytes in [start, end).
func (c *captureReader) slice(start, end int64) []byte {
	lo, hi := start-c.base, end-c.base
	if lo < 0 {
		lo = 0
	}
	if hi > int64(len(c.buf)) {
		hi = int64(len(c.buf))
	}
	if lo >= hi {
		return nil
	}
	out := make([]byte, hi-lo)
	copy(out, c.buf[lo:hi])
	return out
}
