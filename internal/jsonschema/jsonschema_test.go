package jsonschema_test

import (
	"strings"
	"testing"

	"spthreads/internal/jsonschema"
)

const benchLikeSchema = `{
  "type": "object",
  "required": ["experiment", "runs"],
  "properties": {
    "experiment": {"type": "string"},
    "runs": {
      "type": "array",
      "minItems": 1,
      "items": {
        "type": "object",
        "required": ["policy"],
        "properties": {
          "policy": {"type": "string"},
          "procs": {"type": "integer"},
          "time_us": {"type": "number"}
        }
      }
    }
  }
}`

func mustParse(t *testing.T, s string) *jsonschema.Schema {
	t.Helper()
	sch, err := jsonschema.Parse([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func TestValidDocument(t *testing.T) {
	sch := mustParse(t, benchLikeSchema)
	doc := `{"experiment":"fig1","runs":[{"policy":"fifo","procs":1,"time_us":12.5}]}`
	if err := sch.ValidateJSON([]byte(doc)); err != nil {
		t.Errorf("valid doc rejected: %v", err)
	}
}

func TestViolations(t *testing.T) {
	sch := mustParse(t, benchLikeSchema)
	cases := []struct {
		name, doc, wantErr string
	}{
		{"missing required", `{"runs":[{"policy":"x"}]}`, `missing required property "experiment"`},
		{"wrong root type", `[1,2]`, "schema requires object"},
		{"empty runs", `{"experiment":"a","runs":[]}`, "at least 1"},
		{"item missing policy", `{"experiment":"a","runs":[{}]}`, `missing required property "policy"`},
		{"non-integer procs", `{"experiment":"a","runs":[{"policy":"x","procs":1.5}]}`, "requires integer"},
		{"string time", `{"experiment":"a","runs":[{"policy":"x","time_us":"slow"}]}`, "requires number"},
		{"invalid json", `{`, "not valid JSON"},
	}
	for _, c := range cases {
		err := sch.ValidateJSON([]byte(c.doc))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestIntegerAcceptsWholeFloats(t *testing.T) {
	sch := mustParse(t, `{"type":"integer"}`)
	if err := sch.ValidateJSON([]byte(`42`)); err != nil {
		t.Errorf("42 rejected as integer: %v", err)
	}
	if err := sch.ValidateJSON([]byte(`42.0`)); err != nil {
		t.Errorf("42.0 rejected as integer: %v", err)
	}
}

func TestErrorPathsPointAtOffendingNode(t *testing.T) {
	sch := mustParse(t, benchLikeSchema)
	err := sch.ValidateJSON([]byte(`{"experiment":"a","runs":[{"policy":"x"},{"policy":7}]}`))
	if err == nil || !strings.Contains(err.Error(), "$.runs[1].policy") {
		t.Errorf("error %q does not locate $.runs[1].policy", err)
	}
}

func TestEnum(t *testing.T) {
	sch := mustParse(t, `{"type":"string","enum":["sim","native"]}`)
	if err := sch.ValidateJSON([]byte(`"sim"`)); err != nil {
		t.Errorf("allowed enum value rejected: %v", err)
	}
	err := sch.ValidateJSON([]byte(`"cloud"`))
	if err == nil {
		t.Fatal("value outside enum accepted")
	}
	for _, want := range []string{`"cloud"`, `"sim"`, `"native"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("enum error %q does not mention %s", err, want)
		}
	}

	// Numeric and mixed-type enums: members are compared by value after
	// JSON decoding, and a type mismatch is simply "not a member".
	num := mustParse(t, `{"enum":[1, 2, null]}`)
	for _, doc := range []string{`1`, `2`, `null`} {
		if err := num.ValidateJSON([]byte(doc)); err != nil {
			t.Errorf("enum member %s rejected: %v", doc, err)
		}
	}
	for _, doc := range []string{`3`, `"1"`, `true`} {
		if err := num.ValidateJSON([]byte(doc)); err == nil {
			t.Errorf("non-member %s accepted", doc)
		}
	}
}

func TestMinimum(t *testing.T) {
	sch := mustParse(t, `{"type":"integer","minimum":1}`)
	if err := sch.ValidateJSON([]byte(`1`)); err != nil {
		t.Errorf("value at minimum rejected: %v", err)
	}
	if err := sch.ValidateJSON([]byte(`0`)); err == nil {
		t.Error("value below minimum accepted")
	} else if !strings.Contains(err.Error(), "at least 1") {
		t.Errorf("minimum error %q does not state the bound", err)
	}
	// minimum constrains only numeric instances; a non-number already
	// fails the type check, and without a type it is ignored.
	untyped := mustParse(t, `{"minimum":5}`)
	if err := untyped.ValidateJSON([]byte(`"low"`)); err != nil {
		t.Errorf("minimum applied to non-number: %v", err)
	}
}

func TestMaximum(t *testing.T) {
	sch := mustParse(t, `{"type":"number","maximum":100}`)
	if err := sch.ValidateJSON([]byte(`100`)); err != nil {
		t.Errorf("value at maximum rejected: %v", err)
	}
	// Negative values pass: an overhead percentage may be below zero on
	// a noisy host and the bound is one-sided.
	if err := sch.ValidateJSON([]byte(`-3.5`)); err != nil {
		t.Errorf("negative value rejected by maximum: %v", err)
	}
	if err := sch.ValidateJSON([]byte(`100.1`)); err == nil {
		t.Error("value above maximum accepted")
	} else if !strings.Contains(err.Error(), "at most 100") {
		t.Errorf("maximum error %q does not state the bound", err)
	}
	// Like minimum, maximum constrains only numeric instances.
	untyped := mustParse(t, `{"maximum":5}`)
	if err := untyped.ValidateJSON([]byte(`"high"`)); err != nil {
		t.Errorf("maximum applied to non-number: %v", err)
	}
	// Combined bounds describe a closed interval.
	rng := mustParse(t, `{"type":"number","minimum":0,"maximum":10}`)
	if err := rng.ValidateJSON([]byte(`7`)); err != nil {
		t.Errorf("in-range value rejected: %v", err)
	}
	if err := rng.ValidateJSON([]byte(`11`)); err == nil {
		t.Error("out-of-range value accepted")
	}
}
