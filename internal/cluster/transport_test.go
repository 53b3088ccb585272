package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"

	"ftbar/internal/paperex"
	"ftbar/internal/service"
	"ftbar/internal/wire"
)

// TestPayloadTable round-trips every row of the payload table in
// transport.go through a real client and worker, pinning the byte
// layout of each request and reply.
func TestPayloadTable(t *testing.T) {
	tc := startCluster(t, 2, MasterConfig{})
	a := NewClient(tc.workers[0].Addr())
	b := NewClient(tc.workers[1].Addr())
	defer a.Close()
	defer b.Close()
	req, err := json.Marshal(&wire.ScheduleRequest{Problem: paperex.Problem()})
	if err != nil {
		t.Fatal(err)
	}
	scheduled := func(wantCached byte) func(*testing.T, []byte) {
		return func(t *testing.T, reply []byte) {
			if len(reply) == 0 || reply[0] != wantCached {
				t.Fatalf("reply flag byte: got %.1q, want %d", reply, wantCached)
			}
			var resp wire.ScheduleResponse
			if err := json.Unmarshal(reply[1:], &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Length != 13.05 {
				t.Errorf("length %v, want 13.05", resp.Length)
			}
		}
	}
	exactly := func(want string) func(*testing.T, []byte) {
		return func(t *testing.T, reply []byte) {
			if string(reply) != want {
				t.Errorf("reply %q, want %q", reply, want)
			}
		}
	}
	var snapshot []byte
	rows := []struct {
		name    string
		client  *Client
		method  uint64
		payload func() []byte
		check   func(*testing.T, []byte)
		wantErr wire.Code
	}{
		{"schedule computes", a, methodSchedule,
			func() []byte { return append([]byte{1}, req...) }, scheduled(0), ""},
		{"schedule hits", a, methodSchedule,
			func() []byte { return append([]byte{0}, req...) }, scheduled(1), ""},
		{"health up", a, methodHealth, func() []byte { return nil }, exactly("up"), ""},
		{"stats", a, methodStats, func() []byte { return nil },
			func(t *testing.T, reply []byte) {
				var st service.Stats
				if err := json.Unmarshal(reply, &st); err != nil {
					t.Fatal(err)
				}
				if st.SchedulerRuns != 1 || st.CacheHits != 1 {
					t.Errorf("stats %+v, want 1 run and 1 hit", st)
				}
			}, ""},
		{"drain with handoff", a, methodDrain, func() []byte { return []byte{1} },
			func(t *testing.T, reply []byte) {
				if !json.Valid(reply) {
					t.Fatalf("handoff reply is not a snapshot document: %.80q", reply)
				}
				snapshot = reply
			}, ""},
		{"health draining", a, methodHealth, func() []byte { return nil }, exactly("draining"), ""},
		{"install", b, methodInstall, func() []byte { return snapshot }, exactly("1"), ""},
		{"drain without handoff", b, methodDrain, func() []byte { return []byte{0} }, exactly(""), ""},
		{"error frame", b, methodSchedule,
			func() []byte { return append([]byte{2}, req...) }, nil, wire.CodeBadRequest},
	}
	for _, row := range rows {
		reply, err := row.client.Call(context.Background(), row.method, row.payload())
		if row.wantErr != "" {
			var we *wire.Error
			if !errors.As(err, &we) || we.Code != row.wantErr {
				t.Errorf("%s: %v, want a typed %s", row.name, err, row.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		t.Run(row.name, func(t *testing.T) { row.check(t, reply) })
	}
}

// TestPayloadRefusals: every malformed payload is a typed BAD_REQUEST,
// and a refused drain does not start draining.
func TestPayloadRefusals(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	w := NewWorker("w", svc)
	req, err := json.Marshal(&wire.ScheduleRequest{Problem: paperex.Problem()})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		method  uint64
		payload []byte
	}{
		{"schedule without flag byte", methodSchedule, nil},
		{"schedule with unknown flag bit", methodSchedule, append([]byte{3}, req...)},
		{"schedule with a bad document", methodSchedule, []byte("\x01{")},
		{"health with a payload", methodHealth, []byte{0}},
		{"stats with a payload", methodStats, []byte("x")},
		{"drain without flag byte", methodDrain, nil},
		{"drain with unknown flag bit", methodDrain, []byte{0x80}},
		{"drain with trailing bytes", methodDrain, []byte{1, 0}},
		{"install of a non-snapshot", methodInstall, []byte("garbage")},
		{"method 0", 0, nil},
		{"method past install", methodInstall + 1, nil},
	}
	for _, c := range cases {
		reply, appErr := w.handle(c.method, c.payload)
		if appErr == nil || appErr.Code != wire.CodeBadRequest {
			t.Errorf("%s: reply %q, error %v; want BAD_REQUEST", c.name, reply, appErr)
		}
	}
	if w.draining.Load() {
		t.Error("a refused drain left the worker draining")
	}
}

// TestDecodeErrorFrame pins the caller side of an error frame: codes and
// fields survive, a missing code degrades to INTERNAL, and an
// undecodable frame is reported as such.
func TestDecodeErrorFrame(t *testing.T) {
	data, err := json.Marshal(wire.ErrOverloaded.WithField("worker", "w1"))
	if err != nil {
		t.Fatal(err)
	}
	got := decodeError(methodSchedule, data)
	var we *wire.Error
	if !errors.Is(got, wire.ErrOverloaded) || !errors.As(got, &we) || we.Fields["worker"] != "w1" {
		t.Errorf("OVERLOADED frame decoded as %#v", got)
	}
	if err := decodeError(methodSchedule, []byte(`{"message":"boom"}`)); !errors.As(err, &we) ||
		we.Code != wire.CodeInternal || we.Message != "boom" {
		t.Errorf("code-less frame decoded as %#v, want INTERNAL boom", err)
	}
	err = decodeError(methodHealth, []byte("not json"))
	if errors.As(err, &we) || !strings.Contains(err.Error(), "undecodable error reply for health") {
		t.Errorf("undecodable frame decoded as %#v", err)
	}
}

// TestReadFrameBoundedAllocation: a header that declares the largest
// frame and then ends costs the reader no more than the bytes that
// arrived, and a frame spanning several read chunks still round-trips.
func TestReadFrameBoundedAllocation(t *testing.T) {
	header := binary.AppendUvarint(nil, methodInstall)
	header = binary.AppendUvarint(header, maxFrameBytes)
	br := bufio.NewReader(bytes.NewReader(header))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(br)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame read without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
		t.Errorf("a bare %d-byte header allocated %d bytes", len(header), grew)
	}

	payload := bytes.Repeat([]byte("0123456789"), frameChunk/4)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, methodInstall, payload); err != nil {
		t.Fatal(err)
	}
	method, got, err := readFrame(bufio.NewReader(&buf))
	if err != nil || method != methodInstall || !bytes.Equal(got, payload) {
		t.Errorf("%d-byte frame: method %d, %d bytes, %v", len(payload), method, len(got), err)
	}
}

// FuzzWorkerHandle feeds arbitrary bytes through the server's side of a
// connection: handshake, one frame, and the worker's dispatch. Nothing
// may panic, and every refusal must be a typed error that survives the
// error frame.
func FuzzWorkerHandle(f *testing.F) {
	svc := service.New(service.Config{Workers: 1})
	f.Cleanup(svc.Close)
	w := NewWorker("fuzz", svc)
	req, err := json.Marshal(&wire.ScheduleRequest{Problem: paperex.Problem()})
	if err != nil {
		f.Fatal(err)
	}
	snapshot, err := svc.SnapshotBytes()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		method  uint64
		payload []byte
	}{
		{methodSchedule, withFlag(true, req)},
		{methodHealth, nil},
		{methodStats, nil},
		{methodDrain, withFlag(true, nil)},
		{methodInstall, snapshot},
	} {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeHandshake(bw); err != nil {
			f.Fatal(err)
		}
		if err := writeFrame(bw, seed.method, seed.payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		if _, err := readHandshake(br); err != nil {
			return
		}
		method, payload, err := readFrame(br)
		if err != nil {
			return
		}
		_, appErr := w.handle(method, payload)
		w.draining.Store(false)
		if appErr == nil {
			return
		}
		if appErr.Code == "" {
			t.Fatalf("untyped refusal of %s: %v", methodName(method), appErr)
		}
		frame, err := json.Marshal(appErr)
		if err != nil {
			t.Fatal(err)
		}
		if back := decodeError(method, frame); !errors.Is(back, appErr) {
			t.Fatalf("error frame %s decoded as %v", frame, back)
		}
	})
}
