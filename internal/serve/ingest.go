package serve

import (
	"encoding/json"
	"math"
	"strconv"

	"causalfl/internal/sim"
	"causalfl/internal/stream"
	"causalfl/internal/telemetry"
)

// This file decodes ingest bodies. Almost every body a producer sends is the
// canonical form encoding/json writes for ingestRequest: plain ASCII keys,
// no escapes, numbers that fit their fields. A single-pass scanner decodes
// that form straight into telemetry.Sample values without reflection:
//
//   - Sample and counter keys are matched in the order encoding/json writes
//     the SampleState and CounterState fields. A cursor walks the tag list
//     and compares each quoted key and its colon as one string; a key out of
//     that order, repeated or unknown is read and looked up instead.
//   - A counter float with no exponent, a mantissa below 2^53 and at most 22
//     fraction digits is converted with one exact division of two exact
//     float64 values (Clinger's fast path), its digits taken while the
//     RFC 8259 grammar is checked. Every other number goes to
//     strconv.ParseFloat.
//   - Each tick's samples share one array; each service's slice of it is
//     capped at its own end.
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

// decodeIngest decodes an ingest body into ticks. names interns service
// names: a known name is returned as the table's own string, so decoding it
// allocates nothing.
//
// The ticks never alias body: both paths copy every service name and value
// out of it (the scanner interns or copies each key, and encoding/json
// copies whatever it decodes). The handler relies on that to reuse the body
// buffer once it has answered, while the ticks wait in the tenant's queue.
func decodeIngest(body []byte, names map[string]string) ([]map[string][]telemetry.Sample, error) {
	sc := ingestScanner{buf: body, names: names}
	if ticks, ok := sc.request(); ok {
		return ticks, nil
	}
	var req ingestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	ticks := make([]map[string][]telemetry.Sample, len(req.Ticks))
	for i, wire := range req.Ticks {
		tick := make(map[string][]telemetry.Sample, len(wire))
		for svc, ss := range wire {
			samples := make([]telemetry.Sample, len(ss))
			for j, one := range ss {
				samples[j] = one.Sample()
			}
			tick[svc] = samples
		}
		ticks[i] = tick
	}
	return ticks, nil
}

// ingestScanner decodes the canonical ingest form. Every method returns
// false as soon as the input leaves that form. Strings it returns are views
// of buf; anything it stores in a tick is a copy or an interned name.
type ingestScanner struct {
	buf   []byte
	pos   int
	names map[string]string
	// samples and services are one tick's scratch: every sample in body
	// order, and where each service's run of them starts and ends.
	samples  []telemetry.Sample
	services []serviceRun
}

// serviceRun is one service's samples in ingestScanner.samples.
type serviceRun struct {
	name     string
	from, to int
}

// request decodes a whole body: one object whose only key is "ticks",
// surrounded by nothing but whitespace. A repeated "ticks" makes
// encoding/json decode the second array into the maps of the first, merging
// them, so it is left to encoding/json.
func (s *ingestScanner) request() ([]map[string][]telemetry.Sample, bool) {
	ticks := []map[string][]telemetry.Sample{}
	more, ok := s.open('{', '}')
	if more {
		key, isStr := s.str()
		if !isStr || string(key) != "ticks" || !s.eat(':') {
			return nil, false
		}
		for more, ok = s.open('[', ']'); more; more, ok = s.next(']') {
			tick, valid := s.tick()
			if !valid {
				return nil, false
			}
			ticks = append(ticks, tick)
		}
		ok = ok && s.eat('}')
	}
	s.space()
	return ticks, ok && s.pos == len(s.buf)
}

// tick decodes one {service: [sample, ...], ...} object. A repeated service
// replaces the earlier one, as in encoding/json.
func (s *ingestScanner) tick() (map[string][]telemetry.Sample, bool) {
	s.samples, s.services = s.samples[:0], s.services[:0]
	more, ok := s.open('{', '}')
	for ; more; more, ok = s.next('}') {
		key, isStr := s.str()
		if !isStr || !s.eat(':') {
			return nil, false
		}
		name, known := s.names[string(key)]
		if !known {
			name = string(key)
		}
		from := len(s.samples)
		inner, valid := s.open('[', ']')
		for ; inner; inner, valid = s.next(']') {
			s.samples = append(s.samples, telemetry.Sample{})
			if !s.sample(&s.samples[len(s.samples)-1]) {
				return nil, false
			}
		}
		if !valid {
			return nil, false
		}
		s.services = append(s.services, serviceRun{name, from, len(s.samples)})
	}
	if !ok {
		return nil, false
	}
	// An empty service still gets a non-nil slice, as encoding/json gives
	// it: make returns one even for no samples.
	all := make([]telemetry.Sample, len(s.samples))
	copy(all, s.samples)
	tick := make(map[string][]telemetry.Sample, len(s.services))
	for _, run := range s.services {
		tick[run.name] = all[run.from:run.to:run.to]
	}
	return tick, true
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
