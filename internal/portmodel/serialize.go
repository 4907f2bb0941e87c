package portmodel

import (
	"encoding/json"
	"fmt"
	"math"
)

// jsonUop is the wire form of a µop: explicit port list instead of a
// bitmask, so the JSON is human-readable and stable across versions.
type jsonUop struct {
	Ports []int `json:"ports"`
	Count int   `json:"count"`
}

type jsonMapping struct {
	NumPorts int                  `json:"num_ports"`
	Usage    map[string][]jsonUop `json:"usage"`
}

// MarshalJSON renders the mapping with explicit port lists.
func (m *Mapping) MarshalJSON() ([]byte, error) {
	out := jsonMapping{NumPorts: m.NumPorts, Usage: make(map[string][]jsonUop, len(m.Usage))}
	for key, u := range m.Usage {
		ju := make([]jsonUop, 0, len(u))
		for _, x := range u.Clone().Normalize() {
			ju = append(ju, jsonUop{Ports: x.Ports.Ports(), Count: x.Count})
		}
		out.Usage[key] = ju
	}
	return json.Marshal(out)
}

// UnmarshalJSON parses the explicit-port-list form. All indices and
// counts are validated before any PortSet is built: a corrupt or
// hand-edited mapping file must yield a descriptive error, never a
// panic (MakePortSet panics on out-of-range indices by contract).
func (m *Mapping) UnmarshalJSON(data []byte) error {
	var in jsonMapping
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.NumPorts <= 0 || in.NumPorts > MaxPorts {
		return fmt.Errorf("portmodel: invalid num_ports %d (want 1..%d)", in.NumPorts, MaxPorts)
	}
	m.NumPorts = in.NumPorts
	m.Usage = make(map[string]Usage, len(in.Usage))
	for key, ju := range in.Usage {
		u := make(Usage, 0, len(ju))
		total := 0
		for _, x := range ju {
			if x.Count < 0 {
				return fmt.Errorf("portmodel: scheme %q: negative µop count %d", key, x.Count)
			}
			// Normalize sums the counts of µops with equal port sets;
			// bounding the scheme's total keeps every such sum exact.
			if x.Count > math.MaxInt-total {
				return fmt.Errorf("portmodel: scheme %q: µop counts overflow an int", key)
			}
			total += x.Count
			var ps PortSet
			for _, p := range x.Ports {
				if p < 0 || p >= in.NumPorts {
					return fmt.Errorf("portmodel: scheme %q: port index %d out of range [0,%d)", key, p, in.NumPorts)
				}
				ps |= 1 << uint(p)
			}
			u = append(u, Uop{Ports: ps, Count: x.Count})
		}
		m.Usage[key] = u.Normalize()
	}
	return m.Validate()
}
