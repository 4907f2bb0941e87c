package portmodel

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestUnmarshalCorruptInputs feeds hand-damaged mapping JSON through
// UnmarshalJSON. Every case must produce a descriptive error — never a
// panic, which is what MakePortSet would do if indices reached it
// unvalidated.
func TestUnmarshalCorruptInputs(t *testing.T) {
	cases := []struct {
		name    string
		json    string
		wantErr string // substring of the expected error; "" = valid
	}{
		{
			name: "valid",
			json: `{"num_ports":4,"usage":{"add":[{"ports":[0,1],"count":1}]}}`,
		},
		{
			name:    "not JSON",
			json:    `{"num_ports":`,
			wantErr: "unexpected end",
		},
		{
			name:    "zero num_ports",
			json:    `{"num_ports":0,"usage":{}}`,
			wantErr: "invalid num_ports",
		},
		{
			name:    "negative num_ports",
			json:    `{"num_ports":-3,"usage":{}}`,
			wantErr: "invalid num_ports",
		},
		{
			name:    "num_ports beyond MaxPorts",
			json:    `{"num_ports":64,"usage":{}}`,
			wantErr: "invalid num_ports",
		},
		{
			name:    "port index at num_ports",
			json:    `{"num_ports":4,"usage":{"add":[{"ports":[4],"count":1}]}}`,
			wantErr: `scheme "add": port index 4 out of range`,
		},
		{
			name: "port index beyond MaxPorts",
			// Would panic inside MakePortSet if not validated first.
			json:    `{"num_ports":4,"usage":{"add":[{"ports":[1000],"count":1}]}}`,
			wantErr: "port index 1000 out of range",
		},
		{
			name:    "negative port index",
			json:    `{"num_ports":4,"usage":{"add":[{"ports":[-1],"count":1}]}}`,
			wantErr: "port index -1 out of range",
		},
		{
			name:    "negative count",
			json:    `{"num_ports":4,"usage":{"imul":[{"ports":[0],"count":-2}]}}`,
			wantErr: `scheme "imul": negative µop count -2`,
		},
		{
			// Four µops of count 2⁶² and one of count 1 share a port
			// set; their sum wraps to 1 unless rejected.
			name:    "count sum overflows",
			json:    `{"num_ports":2,"usage":{"x":[{"ports":[0],"count":4611686018427387904},{"ports":[0],"count":4611686018427387904},{"ports":[0],"count":4611686018427387904},{"ports":[0],"count":4611686018427387904},{"ports":[0],"count":1}]}}`,
			wantErr: `scheme "x": µop counts overflow`,
		},
		{
			name:    "usage wrong type",
			json:    `{"num_ports":4,"usage":{"add":"two uops"}}`,
			wantErr: "cannot unmarshal",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("UnmarshalJSON panicked on corrupt input: %v", r)
				}
			}()
			var m Mapping
			err := json.Unmarshal([]byte(tc.json), &m)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid mapping rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("corrupt mapping accepted: %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// FuzzMappingUnmarshalJSON feeds arbitrary bytes to UnmarshalJSON. It
// must never panic, and a mapping it accepts must pass Validate,
// survive a MarshalJSON round trip unchanged, and either fail to
// compile or agree bit for bit with the reference evaluator on one
// single-instruction experiment per scheme. The corpus under
// testdata/fuzz/FuzzMappingUnmarshalJSON holds valid, zero-µop,
// uncompilable and corrupt mappings.
func FuzzMappingUnmarshalJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Mapping
		if err := m.UnmarshalJSON(data); err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted mapping fails Validate: %v", err)
		}
		out, err := m.MarshalJSON()
		if err != nil {
			t.Fatalf("MarshalJSON: %v", err)
		}
		var back Mapping
		if err := back.UnmarshalJSON(out); err != nil {
			t.Fatalf("round trip of %s: %v", out, err)
		}
		if back.NumPorts != m.NumPorts || len(back.Usage) != len(m.Usage) {
			t.Fatalf("round trip changed the mapping: %s", out)
		}
		for key, u := range m.Usage {
			if bu, ok := back.Usage[key]; !ok || !bu.Equal(u) {
				t.Fatalf("round trip changed scheme %q: %v -> %v", key, u, bu)
			}
		}
		c, err := CompileMapping(&m, nil)
		if err != nil {
			return
		}
		for _, key := range m.Keys() {
			e := Experiment{key: 1}
			wantQ, wantInv, err := m.BottleneckWitness(e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Evaluate(e)
			if err != nil {
				t.Fatalf("%q: compiled: %v", key, err)
			}
			if got.Witness != wantQ || math.Float64bits(got.Inv) != math.Float64bits(wantInv) {
				t.Fatalf("%q: compiled (%v, %v), reference (%v, %v)", key, got.Witness, got.Inv, wantQ, wantInv)
			}
			wantIPC, err := m.IPC(e, 0)
			if err != nil {
				t.Fatal(err)
			}
			if gotIPC := got.IPC(0); math.Float64bits(gotIPC) != math.Float64bits(wantIPC) {
				t.Fatalf("%q: compiled IPC %v, reference %v", key, gotIPC, wantIPC)
			}
		}
	})
}
