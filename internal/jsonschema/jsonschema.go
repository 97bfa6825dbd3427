// Package jsonschema validates JSON documents against the small subset
// of JSON Schema the repo's report contracts need: the keywords type
// (object, array, string, number, integer, boolean, null), properties,
// required, items, minItems, enum, minimum and maximum. It exists so
// tests can check ptanalyze's JSON report against
// testdata/analyze.schema.json without pulling in an external validator
// dependency.
package jsonschema

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
)

// Schema is one (sub)schema node.
type Schema struct {
	Type       string             `json:"type,omitempty"`
	Properties map[string]*Schema `json:"properties,omitempty"`
	Required   []string           `json:"required,omitempty"`
	Items      *Schema            `json:"items,omitempty"`
	MinItems   *int               `json:"minItems,omitempty"`
	// Enum restricts the instance to one of the listed values, compared
	// after JSON decoding (so numbers are float64).
	Enum []any `json:"enum,omitempty"`
	// Minimum and Maximum are inclusive bounds on numeric instances;
	// other instances pass them.
	Minimum *float64 `json:"minimum,omitempty"`
	Maximum *float64 `json:"maximum,omitempty"`
}

// Parse decodes a schema document.
func Parse(data []byte) (*Schema, error) {
	var s Schema
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("jsonschema: parse: %w", err)
	}
	return &s, nil
}

// ValidateJSON decodes doc as JSON and validates it against s.
func (s *Schema) ValidateJSON(doc []byte) error {
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		return fmt.Errorf("jsonschema: document is not valid JSON: %w", err)
	}
	return s.Validate(v)
}

// Validate checks a decoded document (the encoding/json any mapping:
// map[string]any, []any, string, float64, bool, nil) against s.
func (s *Schema) Validate(doc any) error {
	return s.validate(doc, "$")
}

func (s *Schema) validate(doc any, path string) error {
	if s == nil {
		return nil // absent subschema constrains nothing
	}
	if s.Type != "" {
		if err := checkType(s.Type, doc, path); err != nil {
			return err
		}
	}
	if len(s.Enum) > 0 && !slices.ContainsFunc(s.Enum, func(v any) bool { return reflect.DeepEqual(doc, v) }) {
		got, _ := json.Marshal(doc)
		allowed, _ := json.Marshal(s.Enum)
		return fmt.Errorf("%s: value %s is not one of the allowed values %s", path, got, allowed)
	}
	if f, isNum := doc.(float64); isNum && s.Minimum != nil && f < *s.Minimum {
		return fmt.Errorf("%s: is %v, schema requires at least %v", path, f, *s.Minimum)
	}
	if f, isNum := doc.(float64); isNum && s.Maximum != nil && f > *s.Maximum {
		return fmt.Errorf("%s: is %v, schema allows at most %v", path, f, *s.Maximum)
	}
	if obj, ok := doc.(map[string]any); ok {
		for _, req := range s.Required {
			if _, present := obj[req]; !present {
				return fmt.Errorf("%s: missing required property %q", path, req)
			}
		}
		for name, sub := range s.Properties {
			if val, present := obj[name]; present {
				if err := sub.validate(val, path+"."+name); err != nil {
					return err
				}
			}
		}
	}
	if arr, ok := doc.([]any); ok {
		if s.MinItems != nil && len(arr) < *s.MinItems {
			return fmt.Errorf("%s: has %d items, schema requires at least %d", path, len(arr), *s.MinItems)
		}
		if s.Items != nil {
			for i, item := range arr {
				if err := s.Items.validate(item, fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func checkType(want string, doc any, path string) error {
	ok := false
	switch want {
	case "object":
		_, ok = doc.(map[string]any)
	case "array":
		_, ok = doc.([]any)
	case "string":
		_, ok = doc.(string)
	case "number":
		_, ok = doc.(float64)
	case "integer":
		f, isNum := doc.(float64)
		ok = isNum && f == math.Trunc(f)
	case "boolean":
		_, ok = doc.(bool)
	case "null":
		ok = doc == nil
	default:
		return fmt.Errorf("%s: schema uses unsupported type %q", path, want)
	}
	if !ok {
		return fmt.Errorf("%s: is %s, schema requires %s", path, typeName(doc), want)
	}
	return nil
}

func typeName(doc any) string {
	switch doc.(type) {
	case map[string]any:
		return "object"
	case []any:
		return "array"
	case string:
		return "string"
	case float64:
		return "number"
	case bool:
		return "boolean"
	case nil:
		return "null"
	default:
		return fmt.Sprintf("%T", doc)
	}
}
