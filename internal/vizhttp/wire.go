package vizhttp

import (
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
)

// Append-style JSON for the /query summary and error lines. The bytes
// are exactly what encoding/json produced for the map[string]any
// values these replace — alphabetical keys, HTML-escaped strings,
// ES6-style floats — so the bench client and the byte-identity tests
// read what they always read.

// appendSummary appends rep as a JSON object. The NDJSON summary line
// carries cacheHits; the JSON response never did, and has members
// (the pieces of its `,"points":[…],"rows":[…]`) spliced in where
// those keys sort.
func appendSummary(dst []byte, rep core.Report, cacheHits bool, members ...[]byte) []byte {
	dst = append(dst, '{')
	if cacheHits {
		dst = strconv.AppendInt(append(dst, `"cacheHits":`...), rep.CacheHits, 10)
		dst = append(dst, ',')
	}
	dst = strconv.AppendInt(append(dst, `"diskReads":`...), rep.DiskReads, 10)
	dst = appendJSONFloat(append(dst, `,"estimatedSelectivity":`...), rep.EstimatedSelectivity)
	dst = strconv.AppendBool(append(dst, `,"fromCache":`...), rep.FromCache)
	dst = strconv.AppendInt(append(dst, `,"pagesScanned":`...), rep.PagesScanned, 10)
	dst = strconv.AppendInt(append(dst, `,"pagesSkipped":`...), rep.PagesSkipped, 10)
	dst = appendJSONString(append(dst, `,"plan":`...), rep.Plan.String())
	dst = appendJSONString(append(dst, `,"planReason":`...), rep.PlanReason)
	for _, m := range members {
		dst = append(dst, m...)
	}
	dst = strconv.AppendInt(append(dst, `,"rowsExamined":`...), rep.RowsExamined, 10)
	dst = strconv.AppendInt(append(dst, `,"rowsReturned":`...), rep.RowsReturned, 10)
	dst = strconv.AppendInt(append(dst, `,"stripsDecoded":`...), rep.StripsDecoded, 10)
	return append(dst, '}')
}

// appendJSONFloat formats a finite float64 as encoding/json does:
// shortest round-tripping digits, exponent form only below 1e-6 or
// from 1e21, the exponent unpadded.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 → e-9
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONString quotes s as encoding/json does with HTML escaping
// on: short escapes for \" \\ \b \f \n \r \t, \u00XX for the other
// control bytes and for < > &, U+2028 and U+2029 escaped too, and
// each invalid UTF-8 byte replaced by an escaped U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			case c == '\u2028' || c == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
				start = i + size
			}
			i += size
			continue
		}
		i++
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			continue
		}
		dst = append(dst, s[start:i-1]...)
		start = i
		switch b {
		case '"', '\\':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
	}
	return append(append(dst, s[start:]...), '"')
}
