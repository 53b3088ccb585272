package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"ftbar/internal/paperex"
	"ftbar/internal/wire"
)

// TestErrorSurfacePinned pins the typed-error edge contract introduced
// with internal/wire: every failure keeps the pre-cluster plain-text
// body and status BYTE-FOR-BYTE, and additionally names its wire.Error
// code in the X-Ftbar-Error-Code header. A client that never reads the
// header sees no change; a client that does gets machine-readable
// classification.
func TestErrorSurfacePinned(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	check := func(t *testing.T, resp *http.Response, status int, code wire.Code, body string) {
		t.Helper()
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Errorf("status %d, want %d", resp.StatusCode, status)
		}
		if h := resp.Header.Get("X-Ftbar-Error-Code"); h != string(code) {
			t.Errorf("X-Ftbar-Error-Code %q, want %q", h, code)
		}
		if body != "" && string(got) != body {
			t.Errorf("body %q, want %q", got, body)
		}
	}

	t.Run("undecodable body is 400 BAD_REQUEST", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/v1/schedule", "application/json",
			strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		check(t, resp, http.StatusBadRequest, wire.CodeBadRequest, "")
		if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
			t.Errorf("error body content type %q", resp.Header.Get("Content-Type"))
		}
	})

	t.Run("missing problem is 400 BAD_REQUEST", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/v1/schedule", "application/json",
			strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		check(t, resp, http.StatusBadRequest, wire.CodeBadRequest,
			"service: bad request: missing problem\n")
	})

	t.Run("invalid problem is 422 INVALID_PROBLEM", func(t *testing.T) {
		p := paperex.Problem()
		p.Npf = 99 // more processor failures than processors
		body, _ := json.Marshal(&wire.ScheduleRequest{Problem: p})
		resp, err := http.Post(srv.URL+"/v1/schedule", "application/json",
			bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		check(t, resp, http.StatusUnprocessableEntity, wire.CodeInvalidProblem, "")
	})

	t.Run("sweep without problem is 400", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"npfs":[0,1]}`))
		if err != nil {
			t.Fatal(err)
		}
		check(t, resp, http.StatusBadRequest, wire.CodeBadRequest,
			"service: bad request: missing problem\n")
	})

	t.Run("overload is 429 OVERLOADED with the frozen body", func(t *testing.T) {
		gate := make(chan struct{})
		entered := make(chan struct{}, 16)
		tiny := New(Config{Workers: 1, QueueSize: 1})
		tiny.computeHook = func() {
			entered <- struct{}{}
			<-gate
		}
		defer tiny.Close()
		tsrv := httptest.NewServer(tiny.Handler())
		defer tsrv.Close()
		post := func(body []byte) (*http.Response, error) {
			return http.Post(tsrv.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		}
		mk := func(npf int) []byte {
			p := paperex.Problem()
			p.Npf = npf
			b, _ := json.Marshal(&wire.ScheduleRequest{Problem: p})
			return b
		}
		done := make(chan struct{}, 2)
		for _, b := range [][]byte{mk(0), mk(1)} {
			b := b
			go func() {
				if resp, err := post(b); err == nil {
					resp.Body.Close()
				}
				done <- struct{}{}
			}()
		}
		<-entered // worker busy with the first
		for len(tiny.queue) == 0 {
			runtime.Gosched() // second parked in the queue
		}
		resp, err := post(mk(2))
		if err != nil {
			t.Fatal(err)
		}
		check(t, resp, http.StatusTooManyRequests, wire.CodeOverloaded,
			"service: request queue full\n")
		close(gate)
		<-done
		<-done
	})
}
