package serve

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"sync"

	"causalfl/internal/sim"
	"causalfl/internal/stream"
	"causalfl/internal/telemetry"
)

// This file decodes ingest bodies. Almost every body a producer sends is the
// canonical form encoding/json writes for ingestRequest: plain ASCII keys,
// no escapes, numbers that fit their fields. A single-pass scanner decodes
// that form straight into telemetry.Sample values without reflection:
//
//   - Each tick's service keys are resolved once, to the tenant pipeline's
//     service indices (stream.Pipeline.Services). encoding/json writes a
//     tick's keys in sorted order, so a cursor walks the tenant's sorted
//     names and compares each key with the next one; a key it skips to or
//     that is out of order is looked up instead. No tick carries a name.
//   - Sample and counter keys are matched in the order encoding/json writes
//     the SampleState and CounterState fields. A cursor walks the tag list
//     and compares each quoted key and its colon as one string; a key out of
//     that order, repeated or unknown is read and looked up instead.
//   - A counter float with no exponent, a mantissa below 2^53 and at most 22
//     fraction digits is converted with one exact division of two exact
//     float64 values (Clinger's fast path), its digits taken while the
//     RFC 8259 grammar is checked. Every other number goes to
//     strconv.ParseFloat.
//   - All the samples of a batch share one array, and all its ticks' entries
//     another; each slice of them is capped at its own end. The scanner's
//     scratch comes from a pool, so a batch allocates about three objects.
//
// The scanner never rejects anything: on any other input it reports "not
// canonical" and the body is decoded by encoding/json instead, which alone
// decides what is invalid and words every decode error. The scanner accepts
// only bodies on which encoding/json succeeds with the same ticks, so which
// path ran never shows in the outcome.

// ingestRequest is the POST body: a batch of ticks, each mapping service to
// samples in stream wire form (non-finite counter values spelled "NaN",
// "+Inf", "-Inf").
type ingestRequest struct {
	Ticks []map[string][]stream.SampleState `json:"ticks"`
}

// sampleKeys and counterKeys are the JSON keys of stream.SampleState and
// stream.CounterState in field order; the scanner decodes exactly these,
// exact case, and a test holds the lists to the struct tags.
var (
	sampleKeys  = []string{"at", "deltas", "missing", "span", "corrupt", "used"}
	counterKeys = []string{
		"requests_received", "requests_sent", "responses_ok", "responses_err",
		"errors_observed", "log_messages", "error_log_messages",
		"cpu_seconds", "busy_seconds",
		"rx_packets", "tx_packets", "queue_drops",
	}
	// sampleMembers and counterMembers spell each key as encoding/json
	// writes a member's start, quoted and followed by its colon.
	sampleMembers  = memberStarts(sampleKeys)
	counterMembers = memberStarts(counterKeys)
)

func memberStarts(keys []string) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = `"` + k + `":`
	}
	return out
}

// serviceTable resolves the service names of the ingest wire to a tenant
// pipeline's service indices.
type serviceTable struct {
	// names is each service's name by pipeline index.
	names []string
	// sorted holds the names in ascending order, the order encoding/json
	// writes a tick's keys in; index[j] is sorted[j]'s pipeline index.
	sorted []string
	index  []int
	// byName maps a name to its position in sorted.
	byName map[string]int
}

// newServiceTable indexes a pipeline's services (stream.Pipeline.Services).
func newServiceTable(names []string) *serviceTable {
	t := &serviceTable{names: names, index: make([]int, len(names)), byName: make(map[string]int, len(names))}
	t.sorted = slices.Clone(names)
	slices.Sort(t.sorted)
	for j, name := range t.sorted {
		t.byName[name] = j
	}
	for si, name := range names {
		t.index[t.byName[name]] = si
	}
	return t
}

// ingestBatch is a decoded ingest body in a tenant's service indices.
type ingestBatch struct {
	ticks [][]stream.ServiceSamples
	// unknown names, for each tick that carries services the tenant lacks,
	// the first of them in name order; validateTicks refuses the batch.
	unknown []unknownService
}

// unknownService is the first service in name order of tick that the
// tenant lacks.
type unknownService struct {
	tick int
	name string
}

// noteUnknown records in list that tick k carries the service name the
// tenant lacks. Ticks are noted in ascending order.
func noteUnknown(list []unknownService, k int, name string) []unknownService {
	if n := len(list); n > 0 && list[n-1].tick == k {
		list[n-1].name = min(list[n-1].name, name)
		return list
	}
	return append(list, unknownService{k, name})
}

// decodeIngest decodes an ingest body into ticks in svcs's indices.
//
// The batch never aliases body: both paths copy every value out of it, and
// the name of a service the tenant lacks too. The handler relies on that to
// reuse the body buffer once it has answered, while the ticks wait in the
// tenant's queue.
func decodeIngest(body []byte, svcs *serviceTable) (ingestBatch, error) {
	sc := scanners.Get().(*ingestScanner)
	sc.reset(body, svcs)
	b, ok := sc.request()
	sc.release()
	if ok {
		return b, nil
	}
	var req ingestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return ingestBatch{}, err
	}
	b = ingestBatch{ticks: make([][]stream.ServiceSamples, len(req.Ticks))}
	for k, wire := range req.Ticks {
		tick := make([]stream.ServiceSamples, 0, len(wire))
		for svc, ss := range wire {
			j, known := svcs.byName[svc]
			if !known {
				b.unknown = noteUnknown(b.unknown, k, svc)
				continue
			}
			samples := make([]telemetry.Sample, len(ss))
			for i := range ss {
				samples[i] = ss[i].Sample()
			}
			tick = append(tick, stream.ServiceSamples{Service: svcs.index[j], Samples: samples})
		}
		b.ticks[k] = tick
	}
	return b, nil
}

// maxPooledScratch caps the samples, entries and ticks a pooled scanner's
// scratch keeps room for, as maxPooledBody caps body buffers: a body of a
// million empty ticks does not pin its tick list in the pool. The slots are
// not capped: they hold one entry per service of the largest tenant the
// scanner has served.
const maxPooledScratch = 1 << 13

var scanners = sync.Pool{New: func() any { return new(ingestScanner) }}

// ingestScanner decodes the canonical ingest form. Every method returns
// false as soon as the input leaves that form. Strings it returns are views
// of buf; anything it stores in a batch is a copy.
type ingestScanner struct {
	buf  []byte
	pos  int
	svcs *serviceTable
	// samples, runs and ends are one batch's scratch: every sample in body
	// order, each service's run of them, and where each tick's runs end.
	samples []telemetry.Sample
	runs    []serviceRun
	ends    []int
	unknown []unknownService
	// slots[si] is where service si's run sits in runs while its stamp is
	// the current tick's, so a repeated service is found in one step.
	// Stamps grow by one per tick over the scanner's life, so the slots are
	// never cleared.
	slots []serviceSlot
	stamp int
}

// serviceSlot is a service's run in the tick stamped stamp.
type serviceSlot struct {
	stamp, run int
}

// serviceRun is one service's samples in ingestScanner.samples.
type serviceRun struct {
	service  int // pipeline index
	from, to int
}

// reset readies a pooled scanner for body.
func (s *ingestScanner) reset(body []byte, svcs *serviceTable) {
	s.buf, s.pos, s.svcs = body, 0, svcs
	s.samples, s.runs, s.ends, s.unknown = s.samples[:0], s.runs[:0], s.ends[:0], nil
}

// release returns the scanner to the pool, unless its scratch grew past
// maxPooledScratch.
func (s *ingestScanner) release() {
	s.buf, s.svcs, s.unknown = nil, nil, nil
	if max(cap(s.samples), cap(s.runs), cap(s.ends)) <= maxPooledScratch {
		scanners.Put(s)
	}
}

// request decodes a whole body: one object whose only key is "ticks",
// surrounded by nothing but whitespace. A repeated "ticks" makes
// encoding/json decode the second array into the maps of the first, merging
// them, so it is left to encoding/json.
func (s *ingestScanner) request() (ingestBatch, bool) {
	if len(s.slots) < len(s.svcs.names) {
		s.slots = make([]serviceSlot, len(s.svcs.names))
	}
	more, ok := s.open('{', '}')
	if more {
		key, isStr := s.str()
		if !isStr || string(key) != "ticks" || !s.eat(':') {
			return ingestBatch{}, false
		}
		for more, ok = s.open('[', ']'); more; more, ok = s.next(']') {
			if !s.tick() {
				return ingestBatch{}, false
			}
		}
		ok = ok && s.eat('}')
	}
	s.space()
	if !ok || s.pos != len(s.buf) {
		return ingestBatch{}, false
	}
	return s.batch(), true
}

// batch copies the scratch out: one array for every sample, one for every
// tick's entries.
func (s *ingestScanner) batch() ingestBatch {
	all := make([]telemetry.Sample, len(s.samples))
	copy(all, s.samples)
	entries := make([]stream.ServiceSamples, len(s.runs))
	for i, r := range s.runs {
		entries[i] = stream.ServiceSamples{Service: r.service, Samples: all[r.from:r.to:r.to]}
	}
	b := ingestBatch{ticks: make([][]stream.ServiceSamples, len(s.ends)), unknown: s.unknown}
	from := 0
	for k, end := range s.ends {
		b.ticks[k] = entries[from:end:end]
		from = end
	}
	return b
}

// tick decodes one {service: [sample, ...], ...} object. A repeated service
// replaces the earlier one, as in encoding/json. The samples of a service
// the tenant lacks are read and dropped, and its name noted.
func (s *ingestScanner) tick() bool {
	s.stamp++
	more, ok := s.open('{', '}')
	for cursor := 0; more; more, ok = s.next('}') {
		key, isStr := s.str()
		if !isStr || !s.eat(':') {
			return false
		}
		si, known := s.service(key, &cursor)
		from := len(s.samples)
		inner, valid := s.open('[', ']')
		for ; inner; inner, valid = s.next(']') {
			s.samples = append(s.samples, telemetry.Sample{})
			if !s.sample(&s.samples[len(s.samples)-1]) {
				return false
			}
		}
		if !valid {
			return false
		}
		if !known {
			s.samples = s.samples[:from]
			s.unknown = noteUnknown(s.unknown, len(s.ends), string(key))
			continue
		}
		run := serviceRun{si, from, len(s.samples)}
		if slot := &s.slots[si]; slot.stamp == s.stamp {
			s.runs[slot.run] = run
		} else {
			*slot = serviceSlot{s.stamp, len(s.runs)}
			s.runs = append(s.runs, run)
		}
	}
	s.ends = append(s.ends, len(s.runs))
	return ok
}

// service resolves a tick's key to its pipeline index. The sorted names
// are tried at *cursor first, where encoding/json puts the next key when no
// service was left out; a key found anywhere moves *cursor past it.
func (s *ingestScanner) service(key []byte, cursor *int) (int, bool) {
	sorted := s.svcs.sorted
	j := *cursor
	if j >= len(sorted) || sorted[j] != string(key) {
		var known bool
		if j, known = s.svcs.byName[string(key)]; !known {
			return 0, false
		}
	}
	*cursor = j + 1
	return s.svcs.index[j], true
}

// sample decodes one SampleState object onto a zero telemetry.Sample. A
// repeated key overwrites, and a repeated "deltas" decodes onto the same
// counters, as encoding/json does.
func (s *ingestScanner) sample(smp *telemetry.Sample) bool {
	more, ok := s.open('{', '}')
	for cursor := 0; more; more, ok = s.next('}') {
		var valid bool
		switch s.key(sampleKeys, sampleMembers, &cursor) {
		case 0:
			var at int64
			at, valid = s.int(64)
			smp.At = sim.Time(at)
		case 1:
			valid = s.counters(&smp.Deltas)
		case 2:
			smp.Missing, valid = s.bool()
		case 3:
			var span int64
			span, valid = s.int(strconv.IntSize)
			smp.Span = int(span)
		case 4:
			smp.Corrupt, valid = s.bool()
		case 5:
			_, valid = s.bool() // snapshot-only; ignored on the ingest wire
		}
		if !valid {
			return false
		}
	}
	return ok
}

// counters decodes one CounterState object onto c.
func (s *ingestScanner) counters(c *sim.Counters) bool {
	uints := [...]*uint64{
		&c.RequestsReceived, &c.RequestsSent, &c.ResponsesOK, &c.ResponsesErr,
		&c.ErrorsObserved, &c.LogMessages, &c.ErrorLogMessages,
		nil, nil, // cpu_seconds and busy_seconds are floats
		&c.RxPackets, &c.TxPackets, &c.QueueDrops,
	}
	more, ok := s.open('{', '}')
	for cursor := 0; more; more, ok = s.next('}') {
		var valid bool
		switch i := s.key(counterKeys, counterMembers, &cursor); i {
		case -1:
		case 7:
			c.CPUSeconds, valid = s.float()
		case 8:
			c.BusySeconds, valid = s.float()
		default:
			*uints[i], valid = s.uint()
		}
		if !valid {
			return false
		}
	}
	return ok
}

// key consumes a member's key and colon and returns the key's index in
// keys, or -1 when the member is not canonical. members are the keys as
// memberStarts spells them. They are tried from *cursor on, the order
// encoding/json writes them in, skipping the fields it omitted; a key found
// there moves *cursor past it. Any other key is read and looked up.
func (s *ingestScanner) key(keys, members []string, cursor *int) int {
	s.space()
	rest := s.buf[s.pos:]
	for i := *cursor; i < len(members); i++ {
		m := members[i]
		if len(rest) >= len(m) && string(rest[:len(m)]) == m {
			s.pos += len(m)
			*cursor = i + 1
			return i
		}
	}
	key, ok := s.str()
	if !ok || !s.eat(':') {
		return -1
	}
	return lookup(keys, key)
}

// lookup returns key's index in keys, or -1.
func lookup(keys []string, key []byte) int {
	for i, k := range keys {
		if k == string(key) {
			return i
		}
	}
	return -1
}

// space skips JSON whitespace.
func (s *ingestScanner) space() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (s *ingestScanner) eat(c byte) bool {
	if s.pos < len(s.buf) && s.buf[s.pos] != c {
		s.space()
	}
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// open consumes the opening delimiter of an object or array. more reports
// that a member or element follows, ok that the container began at all;
// an empty container is consumed whole.
func (s *ingestScanner) open(start, end byte) (more, ok bool) {
	if !s.eat(start) {
		return false, false
	}
	return !s.eat(end), true
}

// next consumes what follows a member or element: a comma, after which
// more follow, or the container's end.
func (s *ingestScanner) next(end byte) (more, ok bool) {
	if s.eat(',') {
		return true, true
	}
	return false, s.eat(end)
}

// plain marks the bytes a string may hold on the scanner's path: printable
// ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str returns the contents of a string of plain bytes.
func (s *ingestScanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	i := s.pos
	for i < len(s.buf) && plain[s.buf[i]] {
		i++
	}
	if i == len(s.buf) || s.buf[i] != '"' {
		return nil, false
	}
	str := s.buf[s.pos:i]
	s.pos = i + 1
	return str, true
}

// word consumes w if it comes next, with no whitespace before it.
func (s *ingestScanner) word(w string) bool {
	if len(s.buf)-s.pos >= len(w) && string(s.buf[s.pos:s.pos+len(w)]) == w {
		s.pos += len(w)
		return true
	}
	return false
}

func (s *ingestScanner) bool() (v, ok bool) {
	s.space()
	if s.word("true") {
		return true, true
	}
	return false, s.word("false")
}

// integer reads an RFC 8259 number that has no fraction or exponent, as
// a sign and a magnitude; ok is false when the magnitude overflows uint64.
func (s *ingestScanner) integer() (neg bool, mag uint64, ok bool) {
	s.space()
	b, i := s.buf, s.pos
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			d := uint64(b[i] - '0')
			if mag > (math.MaxUint64-d)/10 {
				return false, 0, false
			}
			mag = mag*10 + d
		}
	default:
		return false, 0, false
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return false, 0, false
	}
	s.pos = i
	return neg, mag, true
}

// int and uint take what encoding/json's strconv.ParseInt(tok, 10, bits)
// and strconv.ParseUint(tok, 10, 64) take from an integer token: "-0" is a
// valid int and no negative number a valid uint.
func (s *ingestScanner) int(bits int) (int64, bool) {
	neg, mag, ok := s.integer()
	limit := uint64(1)<<(bits-1) - 1
	switch {
	case !ok:
		return 0, false
	case neg && mag <= limit+1:
		return -int64(mag), true // wraps to math.MinInt64 at 1<<63
	case !neg && mag <= limit:
		return int64(mag), true
	}
	return 0, false
}

func (s *ingestScanner) uint() (uint64, bool) {
	neg, mag, ok := s.integer()
	return mag, ok && !neg
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// float reads an RFC 8259 number token, or one of the strings
// stream.Float64 spells non-finite values with. The grammar is checked
// first because strconv accepts forms JSON does not, such as "+1" or
// "0x10"; the check also gathers the token's digits. A token with no
// exponent whose digits, read as an integer, stay below 2^53, and which
// has at most 22 after the point, is that integer over a power of ten: both
// exact in a float64, so the one division is correctly rounded, as
// strconv.ParseFloat rounds. Every other token goes to strconv.ParseFloat.
func (s *ingestScanner) float() (float64, bool) {
	s.space()
	b, i := s.buf, s.pos
	if i < len(b) && b[i] == '"' {
		switch {
		case s.word(`"NaN"`):
			return math.NaN(), true
		case s.word(`"+Inf"`):
			return math.Inf(1), true
		case s.word(`"-Inf"`):
			return math.Inf(-1), true
		}
		return 0, false
	}
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// mant stops growing once it reaches 2^53, which already rules out the
	// exact path, so it cannot overflow.
	var mant uint64
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if mant < 1<<53 {
				mant = mant*10 + uint64(b[i]-'0')
			}
		}
	default:
		return 0, false
	}
	frac := 0
	if i < len(b) && b[i] == '.' {
		i++
		from := i
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if mant < 1<<53 {
				mant = mant*10 + uint64(b[i]-'0')
			}
		}
		if frac = i - from; frac == 0 {
			return 0, false
		}
	}
	exact := mant < 1<<53 && frac < len(exactPow10)
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		exact = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		from := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i == from {
			return 0, false
		}
	}
	tok := b[s.pos:i]
	s.pos = i
	if exact {
		v := float64(mant) / exactPow10[frac]
		if neg {
			v = -v
		}
		return v, true
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}
