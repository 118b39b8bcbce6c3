package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// The one reader of a /v1/plan answer. The body is almost all plan and a
// client of a planning service mostly reads, so it is read once, into a buffer
// of the declared size, and walked once — where json.Decoder grows a buffer by
// doubling, scans the body to find its end, scans it again to skip over the
// plan and then copies the plan out.

// maxSizedRead is the largest Content-Length a buffer is allocated for up
// front (client.PlanStream allows one plan record as much). The header is the
// sender's claim: beyond this it is not believed before the bytes arrive.
const maxSizedRead = 16 << 20

// ReadPlanResponse reads the body of a 200 answer from POST /v1/plan and
// parses it with ParsePlanResponse. A body of a declared, believable length
// lands in one allocation of that length; an undeclared (chunked) or larger
// one is read as it comes. A body shorter than declared is an error wrapping
// io.ErrUnexpectedEOF, never a parse of the prefix. The caller closes the
// body.
func ReadPlanResponse(resp *http.Response) (*PlanResponse, error) {
	var body []byte
	var err error
	if n := resp.ContentLength; n >= 0 && n <= maxSizedRead {
		body = make([]byte, n)
		_, err = io.ReadFull(resp.Body, body)
	} else {
		body, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, fmt.Errorf("api: reading plan response: %w", err)
	}
	return ParsePlanResponse(body)
}

// ParsePlanResponse decodes a /v1/plan answer in one pass over body. For
// every byte string it returns an error exactly when
// json.Unmarshal(body, new(PlanResponse)) does, and otherwise the same six
// fields (FuzzPlanResponseRead holds it to that) — so keys match as
// encoding/json matches them (exactly, else under case folding), the last of
// duplicate members wins, unknown members are checked and skipped, null
// leaves a string or a bool alone and makes Plan or Trace the bytes "null",
// and only white space may follow the value.
//
// The whole body's grammar is checked, plan included: a forwarding member
// writes Plan and Trace into its own answer without looking at them again, and
// this walk is what lets it. Plan and Trace alias body — no copy, capacity
// clipped to their length — so body belongs to the response from here on.
func ParsePlanResponse(body []byte) (*PlanResponse, error) {
	pr := new(PlanResponse)
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		// Not an envelope. encoding/json has null a no-op, any other value a
		// type error and anything else a syntax error; let it say which.
		if err := json.Unmarshal(body, pr); err != nil {
			return nil, err
		}
		return pr, nil
	}
	end, err := pr.walk(body, i)
	if err != nil {
		return nil, err
	}
	if end = skipSpace(body, end); end != len(body) {
		return nil, syntaxError(end)
	}
	return pr, nil
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// walk checks the envelope object that starts at b[i] against the JSON
// grammar as encoding/json enforces it, stores each of its members into pr as
// the member ends, and returns the index after the object. It is a loop over
// values with the open objects and arrays on a stack, not a recursion: a body
// nested maxDepth deep costs memory in proportion, not a goroutine stack.
func (pr *PlanResponse) walk(b []byte, i int) (int, error) {
	var few [32]byte
	open := few[:0] // every object and array open at i: '{' or '[' each
	var key []byte  // the envelope member being read: its quoted key,
	var val int     // and where its value starts
	for {
		// An object member or an array element starts at i, or the envelope.
		if len(open) > 0 && open[len(open)-1] == '{' {
			keyEnd, value := scanKey(b, i)
			if value < 0 {
				return 0, syntaxError(^value)
			}
			if len(open) == 1 {
				key, val = b[i:keyEnd], value
			}
			i = value
		}
		if i == len(b) {
			return 0, syntaxError(i)
		}
		switch c := b[i]; c {
		case '{', '[':
			if len(open) == maxDepth {
				return 0, syntaxError(i)
			}
			open = append(open, c)
			if i = skipSpace(b, i+1); i == len(b) || b[i] != c+2 { // '}' and ']' sit two above their openers
				continue
			}
			open = open[:len(open)-1] // empty: a value that ends here
			i++
		case '"':
			i = scanString(b, i)
		case 't':
			i = scanLiteral(b, i, "true")
		case 'f':
			i = scanLiteral(b, i, "false")
		case 'n':
			i = scanLiteral(b, i, "null")
		default:
			i = scanNumber(b, i)
		}
		if i < 0 {
			return 0, syntaxError(^i)
		}
		// A value ended at i: close every object and array it completes, up to
		// the comma before the next member or element.
		for {
			if len(open) == 0 {
				return i, nil
			}
			if len(open) == 1 { // the value was a member of the envelope
				if err := pr.setMember(key, b[val:i:i]); err != nil {
					return 0, err
				}
			}
			if i = skipSpace(b, i); i == len(b) {
				return 0, syntaxError(i)
			}
			if b[i] == ',' {
				i = skipSpace(b, i+1)
				break
			}
			if b[i] != open[len(open)-1]+2 {
				return 0, syntaxError(i)
			}
			open = open[:len(open)-1]
			i++
		}
	}
}

// maxKeySpan is the longest quoted key that can name a field: one \uXXXX
// escape for each letter of "fingerprint". smallSpan is the longest value
// handed to encoding/json that is not a string for a string field.
const (
	maxKeySpan = 2 + 6*len("fingerprint")
	smallSpan  = 100
)

// setMember stores one member of the envelope object: key is its quoted key,
// val its value, both already checked. Whatever is not in the plain spelling
// the service writes — a key or string with an escape or a byte outside
// ASCII, a null, a value of the wrong type — goes to encoding/json as its own
// span, small unless it is a string for a string field, so unquoting, U+FFFD
// replacement and type errors are encoding/json's and cannot drift from it.
func (pr *PlanResponse) setMember(key, val []byte) error {
	name := key[1 : len(key)-1]
	if !plain(name) {
		if len(key) > maxKeySpan {
			return nil // an unknown member
		}
		var s string
		if err := json.Unmarshal(key, &s); err != nil {
			return err
		}
		name = []byte(s)
	}
	switch {
	case bytes.EqualFold(name, []byte("fingerprint")):
		return setString(&pr.Fingerprint, val)
	case bytes.EqualFold(name, []byte("cached")):
		return setBool(&pr.Cached, val)
	case bytes.EqualFold(name, []byte("shared")):
		return setBool(&pr.Shared, val)
	case bytes.EqualFold(name, []byte("peer")):
		return setString(&pr.Peer, val)
	case bytes.EqualFold(name, []byte("plan")):
		pr.Plan = val
	case bytes.EqualFold(name, []byte("trace")):
		pr.Trace = val
	}
	return nil
}

func setString(dst *string, val []byte) error {
	if val[0] != '"' {
		return decodeSmall(val, dst)
	}
	if s := val[1 : len(val)-1]; plain(s) {
		*dst = string(s)
		return nil
	}
	return json.Unmarshal(val, dst)
}

func setBool(dst *bool, val []byte) error {
	switch string(val) {
	case "true":
		*dst = true
	case "false":
		*dst = false
	default:
		return decodeSmall(val, dst)
	}
	return nil
}

// decodeSmall decodes a value that is not what dst holds: null, which leaves
// dst alone, or a type error.
func decodeSmall(val []byte, dst any) error {
	if len(val) > smallSpan { // not null, then
		return fmt.Errorf("api: plan response: cannot decode a %d-byte JSON value into %T", len(val), dst)
	}
	return json.Unmarshal(val, dst)
}

// plain reports whether the inside of a checked JSON string is the string it
// spells: no escape, nothing outside ASCII.
func plain(s []byte) bool {
	for _, c := range s {
		if c == '\\' || c >= 0x80 {
			return false
		}
	}
	return true
}

// The scan functions below take the index a piece of grammar starts at and
// return the index after it, or, for a syntax error at index off, the
// negative number ^off.

func syntaxError(off int) error {
	return fmt.Errorf("api: plan response: invalid JSON at byte %d", off)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanKey scans an object member up to its value: the key, a string that
// starts at b[i] and ends before end, and the colon.
func scanKey(b []byte, i int) (end, value int) {
	if i == len(b) || b[i] != '"' {
		return 0, ^i
	}
	if end = scanString(b, i); end < 0 {
		return 0, end
	}
	i = skipSpace(b, end)
	if i == len(b) || b[i] != ':' {
		return 0, ^i
	}
	return end, skipSpace(b, i+1)
}

// scanString scans the string whose opening quote is b[i].
func scanString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return ^i
		case c == '\\':
			if i++; i == len(b) {
				return ^i
			}
			switch b[i] {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
			case 'u':
				for n := 0; n < 4; n++ {
					if i++; i == len(b) || !isHex(b[i]) {
						return ^i
					}
				}
			default:
				return ^i
			}
		}
	}
	return ^i
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func scanLiteral(b []byte, i int, lit string) int {
	for n := 0; n < len(lit); n, i = n+1, i+1 {
		if i == len(b) || b[i] != lit[n] {
			return ^i
		}
	}
	return i
}

// scanNumber scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return ^i
	}
	if i < len(b) && b[i] == '.' {
		frac := i + 1
		if i = skipDigits(b, frac); i == frac {
			return ^i
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		if i = skipDigits(b, exp); i == exp {
			return ^i
		}
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
