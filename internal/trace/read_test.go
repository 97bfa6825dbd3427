package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"spthreads/internal/trace"
)

// TestParseKindRoundTrip: every kind's String form parses back to
// itself, so the JSONL wire format is self-describing.
func TestParseKindRoundTrip(t *testing.T) {
	for k := trace.KindCreate; k <= trace.KindBatchRefill; k++ {
		got, err := trace.ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := trace.ParseKind("no-such-kind"); err == nil {
		t.Error("ParseKind accepted an unknown kind name")
	}
}

// TestReadJSONLRoundTrip: writing a trace and reading it back preserves
// every event, including the fork-parent and join-target payloads the
// analyzer depends on.
func TestReadJSONLRoundTrip(t *testing.T) {
	rec := trace.NewRecorder(0)
	rec.RecordArg(0, -1, 1, trace.KindCreate, 0)
	rec.RecordArg(0, -1, 1, trace.KindStackAlloc, 8192)
	rec.Record(10, 0, 1, trace.KindDispatch)
	rec.RecordArg(50, 0, 2, trace.KindCreate, 1)
	rec.RecordArg(90, 0, 1, trace.KindJoin, 2)
	rec.Record(120, 0, 1, trace.KindExit)

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Events()
	got := back.Events()
	if len(got) != len(want) {
		t.Fatalf("read %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReadJSONLBlankLines: blank lines are tolerated (files produced by
// shell pipelines often end with one).
func TestReadJSONLBlankLines(t *testing.T) {
	in := `{"ts":0,"proc":0,"thread":1,"kind":"dispatch"}

{"ts":5,"proc":0,"thread":1,"kind":"exit"}
`
	rec, err := trace.ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Events()); n != 2 {
		t.Fatalf("events = %d, want 2", n)
	}
}

// TestReadJSONLTruncated: a truncated or malformed line is a hard error
// with the line number — a partial trace must not silently analyze as a
// complete one.
func TestReadJSONLTruncated(t *testing.T) {
	cases := map[string]string{
		"truncated object": `{"ts":0,"proc":0,"thread":1,"kind":"dispatch"}` + "\n" + `{"ts":5,"pro`,
		"unknown kind":     `{"ts":0,"proc":0,"thread":1,"kind":"warp"}`,
		"not json":         `ts=0 proc=0`,
	}
	for name, in := range cases {
		if _, err := trace.ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJSONL accepted bad input", name)
		}
	}
}

// TestReadJSONLEmpty: an empty stream reads as an empty recorder; the
// caller (pttrace -in) decides that is unusable.
func TestReadJSONLEmpty(t *testing.T) {
	rec, err := trace.ReadJSONL(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Events()); n != 0 {
		t.Fatalf("events = %d, want 0", n)
	}
}

// TestChromeExportNewKinds: join and stack-alloc events carry their
// payloads into the Chrome export's args so Perfetto shows the DAG
// edges.
func TestChromeExportNewKinds(t *testing.T) {
	rec := trace.NewRecorder(0)
	rec.RecordArg(0, 0, 2, trace.KindCreate, 1)
	rec.RecordArg(0, 0, 2, trace.KindStackAlloc, 8192)
	rec.RecordArg(100, 0, 1, trace.KindJoin, 2)

	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf, 1, nil); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, e := range f.TraceEvents {
		name, _ := e["name"].(string)
		args, _ := e["args"].(map[string]any)
		switch name {
		case "create":
			if args["parent"] == float64(1) {
				found["create"] = true
			}
		case "join":
			if args["target"] == float64(2) {
				found["join"] = true
			}
		case "stack-alloc":
			if args["bytes"] == float64(8192) {
				found["stack-alloc"] = true
			}
		}
	}
	for _, k := range []string{"create", "join", "stack-alloc"} {
		if !found[k] {
			t.Errorf("export missing %s payload args", k)
		}
	}
}
