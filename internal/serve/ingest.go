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
// that form straight into telemetry.Sample values without reflection. The
// scanner never rejects anything: on any other input it reports "not
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
)

// decodeIngest decodes an ingest body into ticks. names interns service
// names: a known name is returned as the table's own string, so decoding it
// allocates nothing.
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
// false as soon as the input leaves that form.
type ingestScanner struct {
	buf   []byte
	pos   int
	names map[string]string
	// scratch holds the samples of the service being decoded.
	scratch []telemetry.Sample
	// hint sizes each tick's map: the previous tick's service count in
	// this body, so a map is sized by what the input has shown, not by
	// the model.
	hint int
}

// request decodes a whole body: one object whose only key is "ticks",
// surrounded by nothing but whitespace.
func (s *ingestScanner) request() ([]map[string][]telemetry.Sample, bool) {
	ticks := []map[string][]telemetry.Sample{}
	seen := false
	ok := s.members(func(key []byte) bool {
		// A repeated "ticks" makes encoding/json decode the second array
		// into the maps of the first, merging them.
		if string(key) != "ticks" || seen {
			return false
		}
		seen = true
		return s.elements(func() bool {
			tick, ok := s.tick()
			ticks = append(ticks, tick)
			return ok
		})
	})
	s.space()
	return ticks, ok && s.pos == len(s.buf)
}

// tick decodes one {service: [sample, ...], ...} object. A repeated service
// replaces the earlier one, as in encoding/json.
func (s *ingestScanner) tick() (map[string][]telemetry.Sample, bool) {
	tick := make(map[string][]telemetry.Sample, s.hint)
	ok := s.members(func(key []byte) bool {
		name, known := s.names[string(key)]
		if !known {
			name = string(key)
		}
		s.scratch = s.scratch[:0]
		if !s.elements(s.sample) {
			return false
		}
		// An empty service still gets a non-nil slice, as encoding/json
		// gives it.
		samples := make([]telemetry.Sample, len(s.scratch))
		copy(samples, s.scratch)
		tick[name] = samples
		return true
	})
	s.hint = len(tick)
	return tick, ok
}

// sample decodes one SampleState object onto a zero telemetry.Sample. A
// repeated key overwrites, and a repeated "deltas" decodes onto the same
// counters, as encoding/json does.
func (s *ingestScanner) sample() bool {
	s.scratch = append(s.scratch, telemetry.Sample{})
	smp := &s.scratch[len(s.scratch)-1]
	return s.members(func(key []byte) bool {
		var ok bool
		switch lookup(sampleKeys, key) {
		case 0:
			var at int64
			at, ok = s.int(64)
			smp.At = sim.Time(at)
		case 1:
			ok = s.counters(&smp.Deltas)
		case 2:
			smp.Missing, ok = s.bool()
		case 3:
			var span int64
			span, ok = s.int(strconv.IntSize)
			smp.Span = int(span)
		case 4:
			smp.Corrupt, ok = s.bool()
		case 5:
			_, ok = s.bool() // snapshot-only; ignored on the ingest wire
		}
		return ok
	})
}

// counters decodes one CounterState object onto c.
func (s *ingestScanner) counters(c *sim.Counters) bool {
	uints := [...]*uint64{
		&c.RequestsReceived, &c.RequestsSent, &c.ResponsesOK, &c.ResponsesErr,
		&c.ErrorsObserved, &c.LogMessages, &c.ErrorLogMessages,
		nil, nil, // cpu_seconds and busy_seconds are floats
		&c.RxPackets, &c.TxPackets, &c.QueueDrops,
	}
	return s.members(func(key []byte) bool {
		var ok bool
		switch i := lookup(counterKeys, key); i {
		case -1:
		case 7:
			c.CPUSeconds, ok = s.float()
		case 8:
			c.BusySeconds, ok = s.float()
		default:
			*uints[i], ok = s.uint()
		}
		return ok
	})
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

// members decodes an object, calling member with each key once the colon
// is consumed; member decodes the value.
func (s *ingestScanner) members(member func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') || !member(key) {
			return false
		}
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

// elements decodes an array, calling element for each value.
func (s *ingestScanner) elements(element func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !element() {
			return false
		}
		if !s.eat(',') {
			return s.eat(']')
		}
	}
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

// number returns the RFC 8259 number token at the current position.
// Validating the grammar first matters: strconv accepts forms JSON does
// not, such as "+1" or "0x10".
func (s *ingestScanner) number() ([]byte, bool) {
	b, i := s.buf, s.pos
	digits := func() bool {
		from := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	tok := b[s.pos:i]
	s.pos = i
	return tok, true
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

// float also takes the strings stream.Float64 spells non-finite values with.
func (s *ingestScanner) float() (float64, bool) {
	s.space()
	if s.pos < len(s.buf) && s.buf[s.pos] == '"' {
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
	tok, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}
