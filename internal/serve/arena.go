package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// arena.go — request-scoped buffer arenas for the HTTP surface, shared with
// the gateway tier (which proxies the same wire types). Every
// request used to allocate its own JSON decode scratch, response encoder,
// and encode buffer; the steady-state serving path instead draws them from
// process-wide pools and returns them when the response is written, so the
// per-request handler overhead is a handful of fixed-size pool round trips
// (DESIGN.md §15). Buffers that grew beyond maxPooledBuf (one oversized
// snapshot import, a huge input override) are dropped rather than pooled so
// a burst cannot pin its high-water mark forever.

// maxPooledBuf bounds the capacity a buffer may keep when returned to its
// pool.
const maxPooledBuf = 1 << 20

// bodyPool holds request-body read scratch: the decode path slurps the
// (limited) body into a pooled buffer and unmarshals from its bytes —
// json.Unmarshal reuses scanner state from encoding/json's internal pool,
// where a per-request json.NewDecoder would allocate its own.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReadBody reads at most limit bytes of body into pooled scratch. The
// returned buffer's bytes are valid until PutBody.
func ReadBody(body io.Reader, limit int64) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(body, limit)); err != nil {
		PutBody(buf)
		return nil, err
	}
	return buf, nil
}

// PutBody returns ReadBody scratch to its pool.
func PutBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		bodyPool.Put(buf)
	}
}

// JSONScratch is one pooled encoder: a buffer with a json.Encoder
// permanently bound to it, so encoding a body allocates neither.
type JSONScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// Bytes returns the encoded body, valid until PutJSON.
func (s *JSONScratch) Bytes() []byte { return s.buf.Bytes() }

var jsonPool = sync.Pool{New: func() any {
	s := &JSONScratch{}
	s.enc = json.NewEncoder(&s.buf)
	return s
}}

// EncodeJSON renders v through a pooled encoder and returns the scratch;
// the caller writes scratch.Bytes() and calls PutJSON.
func EncodeJSON(v any) (*JSONScratch, error) {
	s := jsonPool.Get().(*JSONScratch)
	s.buf.Reset()
	if err := s.enc.Encode(v); err != nil {
		PutJSON(s)
		return nil, err
	}
	return s, nil
}

// PutJSON returns EncodeJSON scratch to its pool.
func PutJSON(s *JSONScratch) {
	if s.buf.Cap() <= maxPooledBuf {
		jsonPool.Put(s)
	}
}

// WriteJSON renders v through a pooled encoder straight to the response,
// with Content-Length set from the staged bytes.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	s, err := EncodeJSON(v)
	if err != nil {
		Refuse(w, err) // an ErrorBody always encodes
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(s.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(s.buf.Bytes())
	PutJSON(s)
}

// DecodeJSON is the pooled-scratch counterpart of a one-shot
// json.NewDecoder(...).Decode: read the limited body, unmarshal, release.
// A body it cannot read or decode is a bad request, "malformed JSON: ".
func DecodeJSON(body io.Reader, limit int64, v any) error {
	buf, err := ReadBody(body, limit)
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), v)
		PutBody(buf)
	}
	if err != nil {
		return badRequest("malformed JSON: " + err.Error())
	}
	return nil
}
