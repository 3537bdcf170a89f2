package serve_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"seculator/internal/serve"
)

// refRequest decodes a body the way encoding/json decodes it into a plain
// []int32: its Input shadows the embedded request's, which stays nil.
type refRequest struct {
	serve.InferRequest
	Input []int32 `json:"input,omitempty"`
}

// checkDecodesLikeStdlib decodes body through serve.DecodeJSON into a fresh
// InferRequest and through encoding/json into a refRequest, and fails unless
// both accept or both reject it, and on accept agree on every field, nil
// and empty input told apart.
func checkDecodesLikeStdlib(t *testing.T, body []byte) {
	t.Helper()
	var got serve.InferRequest
	gerr := serve.DecodeJSON(bytes.NewReader(body), 8<<20, &got)
	var ref refRequest
	rerr := json.Unmarshal(body, &ref)
	if (gerr == nil) != (rerr == nil) {
		t.Fatalf("body %q: DecodeJSON error %v, encoding/json error %v", body, gerr, rerr)
	}
	if gerr != nil {
		return
	}
	if (got.Input == nil) != (ref.Input == nil) || !slices.Equal(got.Input, ref.Input) {
		t.Fatalf("body %q: input %#v, encoding/json %#v", body, []int32(got.Input), ref.Input)
	}
	got.Input = nil
	if !reflect.DeepEqual(got, ref.InferRequest) {
		t.Fatalf("body %q: request %+v, encoding/json %+v", body, got, ref.InferRequest)
	}
}

// FuzzDecodeInferRequest holds the tensor wire type's parser to
// encoding/json on arbitrary infer bodies (the committed corpus carries the
// corners: null elements, duplicated keys, -0, the int32 bounds and one
// past them, exponents, fractions, nested arrays, odd whitespace).
func FuzzDecodeInferRequest(f *testing.F) {
	f.Add([]byte(`{"network":"Mini","seed":1,"input":[1,-2,3],"return_output":true}`))
	f.Fuzz(checkDecodesLikeStdlib)
}

// TestInferRequestWireCompatible: a request marshalled with a plain []int32
// input, as clients built before the tensor wire type send it, decodes to
// the same InferRequest, and the tensor type marshals to the same bytes.
func TestInferRequestWireCompatible(t *testing.T) {
	type plainRequest struct {
		Network        string  `json:"network"`
		Seed           int64   `json:"seed"`
		Input          []int32 `json:"input,omitempty"`
		Session        string  `json:"session,omitempty"`
		ReturnOutput   bool    `json:"return_output,omitempty"`
		TimeoutMs      int64   `json:"timeout_ms,omitempty"`
		ReturnSnapshot bool    `json:"return_snapshot,omitempty"`
	}
	for _, in := range [][]int32{nil, {}, {0}, {-2147483648, 2147483647, -1, 7}} {
		plain := plainRequest{Network: "Mini", Seed: -3, Input: in, Session: "s", ReturnOutput: true, TimeoutMs: 9, ReturnSnapshot: true}
		body, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		var got serve.InferRequest
		if err := serve.DecodeJSON(bytes.NewReader(body), 1<<20, &got); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		want := serve.InferRequest{Network: "Mini", Seed: -3, Session: "s", ReturnOutput: true, TimeoutMs: 9, ReturnSnapshot: true}
		if len(in) > 0 { // omitempty drops an empty input
			want.Input = in
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s decodes to %+v, want %+v", body, got, want)
		}
		if again, err := json.Marshal(got); err != nil || !bytes.Equal(again, body) {
			t.Fatalf("%+v marshals to %s (%v), want %s", got, again, err, body)
		}
		checkDecodesLikeStdlib(t, body)
	}
}
