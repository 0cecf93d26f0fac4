package server

// Request bodies are read into pooled buffers that instrument() takes
// back once the handler returns. Every test in this package runs with
// returned buffers overwritten, so a reference kept past its request
// (in the doc cache, a receipt, a response) reads garbage and fails the
// test that made it instead of passing while the buffer happens to sit
// unused.

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

func init() {
	onBodyReturn = func(b []byte) {
		for i := range b {
			b[i] = 0xA5
		}
	}
}

// TestReadBodyMatchesReadAll: the pooled read returns the bytes that
// io.ReadAll over the same capped body returns, whatever Content-Length
// claims, and answers each failure with the status that path's error
// maps to: 413 (counted) over the cap, 499 when the client stops
// sending, 400 for an empty body. Every row reads into a buffer the
// previous rows returned, poisoned.
func TestReadBodyMatchesReadAll(t *testing.T) {
	const limit = 1024
	s, _ := newTestServer(t, Options{MaxBodyBytes: limit})
	doc := []byte(strings.Repeat("<r>body</r>", 60)) // 660 bytes, under the cap
	big := bytes.Repeat([]byte("x"), 3*limit)
	for _, tc := range []struct {
		name   string
		body   func() io.Reader
		length int64
		code   int
	}{
		{"length exact", func() io.Reader { return bytes.NewReader(doc) }, int64(len(doc)), http.StatusOK},
		{"length shorter than body", func() io.Reader { return bytes.NewReader(doc) }, 10, http.StatusOK},
		{"length longer than body", func() io.Reader { return bytes.NewReader(doc) }, 10 * int64(len(doc)), http.StatusOK},
		{"length over the cap, body under", func() io.Reader { return bytes.NewReader(doc) }, 40 * limit, http.StatusOK},
		{"length unknown", func() io.Reader { return bytes.NewReader(doc) }, -1, http.StatusOK},
		{"empty", func() io.Reader { return bytes.NewReader(nil) }, 0, http.StatusBadRequest},
		{"over the cap", func() io.Reader { return bytes.NewReader(big) }, int64(len(big)), http.StatusRequestEntityTooLarge},
		{"over the cap, length unknown", func() io.Reader { return bytes.NewReader(big) }, -1, http.StatusRequestEntityTooLarge},
		{"reader fails mid-body", func() io.Reader {
			return io.MultiReader(bytes.NewReader(doc[:100]), iotest.ErrReader(io.ErrUnexpectedEOF))
		}, int64(len(doc)), 499},
	} {
		t.Run(tc.name, func(t *testing.T) {
			request := func() *http.Request {
				r := httptest.NewRequest("POST", "/v1/detect", tc.body())
				r.ContentLength = tc.length
				return r
			}
			ref := request()
			want, refErr := io.ReadAll(limitBody(httptest.NewRecorder(), ref, limit))
			wantCode := http.StatusOK
			var mbe *http.MaxBytesError
			switch {
			case errors.As(refErr, &mbe):
				wantCode = http.StatusRequestEntityTooLarge
			case refErr != nil:
				wantCode = 499
			case len(want) == 0:
				wantCode = http.StatusBadRequest
			}
			if wantCode != tc.code {
				t.Fatalf("io.ReadAll path gives %d (%v), row expects %d", wantCode, refErr, tc.code)
			}

			r := request()
			sw := &statusWriter{ResponseWriter: httptest.NewRecorder(), code: http.StatusOK}
			tooLarge := s.met.tooLarge.Value()
			got, err := s.readBody(sw, r)
			code := http.StatusOK
			if err != nil {
				code = s.logErr(r, err)
			}
			if code != wantCode {
				t.Fatalf("status %d (%v), io.ReadAll path gives %d (%v)", code, err, wantCode, refErr)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("read %d bytes, io.ReadAll path reads %d", len(got), len(want))
			}
			wantCounted := uint64(0)
			if code == http.StatusRequestEntityTooLarge {
				wantCounted = 1
			}
			if n := s.met.tooLarge.Value() - tooLarge; n != wantCounted {
				t.Fatalf("wmxmld_body_too_large_total moved by %d on a %d", n, code)
			}
			if sw.body == nil {
				t.Fatal("readBody left no buffer for instrument() to return")
			}
			putBody(sw.body)
		})
	}
}
