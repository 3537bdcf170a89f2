package gateway

import (
	"io"

	"seculator/internal/serve"
)

// arena.go — what the gateway hot path adds to the shared request arenas
// of internal/serve (DESIGN.md §15): an exact-size upstream read.

// readInto drains at most limit bytes of src into pooled scratch and
// returns an exact-size copy the caller owns: one right-sized allocation
// instead of io.ReadAll's doubling growth chain, and no release protocol
// to thread through the relay paths.
func readInto(src io.Reader, limit int64) ([]byte, error) {
	buf, err := serve.ReadBody(src, limit)
	if err != nil {
		return nil, err
	}
	defer serve.PutBody(buf)
	return append([]byte(nil), buf.Bytes()...), nil
}
