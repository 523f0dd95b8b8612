package serve

import (
	"math"
	"net/http"
	"sort"
	"strconv"
	"unicode/utf8"

	"ceaff/internal/mat"
)

// Hand-rolled JSON encoding for the hot response types. encoding/json
// allocates per call (reflection caches, the encodeState buffer growth, the
// map-key sort) — at heavy traffic the response path became the dominant
// allocation site. These appenders write into a caller-provided buffer from
// the mat byte arena and reproduce encoding/json's output byte for byte:
// the same HTML escaping (the Encoder default), the same ES6-style float
// formatting with the e-0X exponent cleanup, the same omitempty elisions,
// and the same sorted map keys. TestEncodeMatchesStdlib pins the identity
// property against randomized inputs.
//
// Non-finite floats are the one case encoding/json rejects
// (UnsupportedValueError); the appenders report ok=false and the server
// falls back to writeJSON so even the failure bytes match.

const jsonHex = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal with encoding/json's
// HTML-escaping rules: `"`, `\`, control characters, `<`, `>`, `&` escaped,
// invalid UTF-8 replaced with �, and U+2028/U+2029 escaped.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\', '"':
				buf = append(buf, '\\', b)
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				// Control characters plus <, >, & get the \u00XX form.
				buf = append(buf, '\\', 'u', '0', '0', jsonHex[b>>4], jsonHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// appendJSONFloat appends f with encoding/json's float64 formatting: 'f'
// shortest form, switching to 'e' outside [1e-6, 1e21) with single-digit
// negative exponents unpadded. ok is false for NaN/Inf, which encoding/json
// refuses to encode.
func appendJSONFloat(buf []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return buf, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	mark := len(buf)
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 → e-9, matching the stdlib's ES6-style exponents.
		if n := len(buf); n-mark >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf, true
}

func appendJSONBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, "true"...)
	}
	return append(buf, "false"...)
}

// appendDecision appends one Decision object, honouring the struct's field
// order and omitempty tags (target elided when "", rank when 0).
func appendDecision(buf []byte, d Decision) ([]byte, bool) {
	buf = append(buf, `{"source_index":`...)
	buf = strconv.AppendInt(buf, int64(d.SourceIndex), 10)
	buf = append(buf, `,"source":`...)
	buf = appendJSONString(buf, d.Source)
	buf = append(buf, `,"target_index":`...)
	buf = strconv.AppendInt(buf, int64(d.TargetIndex), 10)
	if d.Target != "" {
		buf = append(buf, `,"target":`...)
		buf = appendJSONString(buf, d.Target)
	}
	buf = append(buf, `,"score":`...)
	buf, ok := appendJSONFloat(buf, d.Score)
	if !ok {
		return buf, false
	}
	if d.Rank != 0 {
		buf = append(buf, `,"rank":`...)
		buf = strconv.AppendInt(buf, int64(d.Rank), 10)
	}
	buf = append(buf, `,"matched":`...)
	buf = appendJSONBool(buf, d.Matched)
	if d.Degraded {
		buf = append(buf, `,"degraded":true`...)
	}
	return append(buf, '}'), true
}

// appendAlignResponse appends the /v1/align response body (without the
// Encoder's trailing newline; the writer adds it).
func appendAlignResponse(buf []byte, resp alignResponse) ([]byte, bool) {
	buf = append(buf, `{"degraded":`...)
	buf = appendJSONBool(buf, resp.Degraded)
	buf = append(buf, `,"results":`...)
	if resp.Results == nil {
		buf = append(buf, "null"...)
		return append(buf, '}'), true
	}
	buf = append(buf, '[')
	for i, d := range resp.Results {
		if i > 0 {
			buf = append(buf, ',')
		}
		var ok bool
		if buf, ok = appendDecision(buf, d); !ok {
			return buf, false
		}
	}
	buf = append(buf, ']')
	return append(buf, '}'), true
}

// appendCandidate appends one Candidate object; the features map is written
// in sorted key order exactly as encoding/json sorts map keys.
func appendCandidate(buf []byte, c Candidate) ([]byte, bool) {
	buf = append(buf, `{"target_index":`...)
	buf = strconv.AppendInt(buf, int64(c.TargetIndex), 10)
	buf = append(buf, `,"target":`...)
	buf = appendJSONString(buf, c.Target)
	buf = append(buf, `,"score":`...)
	buf, ok := appendJSONFloat(buf, c.Score)
	if !ok {
		return buf, false
	}
	buf = append(buf, `,"rank":`...)
	buf = strconv.AppendInt(buf, int64(c.Rank), 10)
	buf = append(buf, `,"features":`...)
	if c.Features == nil {
		buf = append(buf, "null"...)
		return append(buf, '}'), true
	}
	var karr [4]string
	keys := karr[:0]
	for k := range c.Features {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = append(buf, '{')
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, k)
		buf = append(buf, ':')
		if buf, ok = appendJSONFloat(buf, c.Features[k]); !ok {
			return buf, false
		}
	}
	buf = append(buf, '}')
	return append(buf, '}'), true
}

// appendCandidatesResponse appends the candidates-endpoint body — the
// single-key map encoding/json produces for map[string][]Candidate.
func appendCandidatesResponse(buf []byte, cands []Candidate) ([]byte, bool) {
	buf = append(buf, `{"candidates":`...)
	if cands == nil {
		buf = append(buf, "null"...)
		return append(buf, '}'), true
	}
	buf = append(buf, '[')
	for i, c := range cands {
		if i > 0 {
			buf = append(buf, ',')
		}
		var ok bool
		if buf, ok = appendCandidate(buf, c); !ok {
			return buf, false
		}
	}
	buf = append(buf, ']')
	return append(buf, '}'), true
}

// writeAlignResponse writes the align answer through the arena-backed
// encoder, falling back to the stdlib path when a non-finite score makes
// encoding/json's error behaviour authoritative.
func (s *Server) writeAlignResponse(w http.ResponseWriter, resp alignResponse) {
	// A partial answer — any source degraded by partition loss — is
	// advertised in a header so clients and load generators can count
	// partials without parsing bodies. Engine-Partial is absent on full
	// answers, keeping healthy responses byte-identical across topologies.
	for _, d := range resp.Results {
		if d.Degraded {
			w.Header().Set("Engine-Partial", "true")
			s.reg.Counter("serve.align.partial").Inc()
			break
		}
	}
	buf := mat.GetScratchBytes(64 + 160*len(resp.Results))
	out, ok := appendAlignResponse(buf, resp)
	if !ok {
		mat.PutScratchBytes(out)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	out = append(out, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
	mat.PutScratchBytes(out)
}

// writeCandidatesResponse is the candidates-endpoint counterpart.
func (s *Server) writeCandidatesResponse(w http.ResponseWriter, cands []Candidate) {
	buf := mat.GetScratchBytes(64 + 256*len(cands))
	out, ok := appendCandidatesResponse(buf, cands)
	if !ok {
		mat.PutScratchBytes(out)
		writeJSON(w, http.StatusOK, map[string][]Candidate{"candidates": cands})
		return
	}
	out = append(out, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
	mat.PutScratchBytes(out)
}
