// Command zenmap inspects a port mapping produced by zeninfer: it
// prints instruction usages, compares against the simulator's ground
// truth, and predicts the throughput of user-provided kernels with
// the Section 2.2 linear-program semantics.
//
// Usage:
//
//	zenmap -in mapping.json [-grep vpadd] [-predict '2*add GPR[32], GPR[32]; vpor XMM, XMM, XMM']
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"zenport"
)

func main() {
	in := flag.String("in", "", "mapping JSON file (from zeninfer -out)")
	grep := flag.String("grep", "", "only print schemes containing this substring")
	predict := flag.String("predict", "", "kernel to predict ('N*key; M*key')")
	compare := flag.Bool("compare", false, "compare against the simulator ground truth")
	timeout := flag.Duration("timeout", 0, "abort if the run exceeds this duration (0 = none)")
	flag.Parse()

	if *timeout > 0 {
		// zenmap performs no measurements; a watchdog bounds the LP
		// predictions and ground-truth comparison.
		time.AfterFunc(*timeout, func() {
			log.Fatalf("zenmap: timeout of %s exceeded", *timeout)
		})
	}

	if *in == "" {
		log.Fatal("specify -in mapping.json")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		log.Fatal(err)
	}
	var m zenport.Mapping
	if err := json.Unmarshal(data, &m); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapping over %d ports, %d schemes\n", m.NumPorts, len(m.Usage))

	if *predict != "" {
		e, err := zenport.ParseKernel(*predict)
		if err != nil {
			log.Fatal(err)
		}
		if e.Len() == 0 {
			log.Fatalf("empty kernel %q", *predict)
		}
		// Unknown scheme keys are user input: report them with
		// suggestions and exit 1 instead of a bare lookup failure.
		db := zenport.ZenDB()
		for key := range e {
			if _, ok := m.Get(key); ok {
				continue
			}
			if _, err := db.SchemeByKey(key); err != nil {
				log.Fatal(err)
			}
			log.Fatalf("scheme %q is not covered by the mapping %s", key, *in)
		}
		tp, err := m.InverseThroughputBounded(e, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("kernel %s\n", e)
		fmt.Printf("predicted inverse throughput: %.4f cycles/iteration\n", tp)
		fmt.Printf("predicted IPC:                %.4f\n", float64(e.Len())/tp)
		return
	}

	db := zenport.ZenDB()
	matches, exact := 0, 0
	for _, key := range m.Keys() {
		if *grep != "" && !strings.Contains(key, *grep) {
			continue
		}
		u, _ := m.Get(key)
		line := fmt.Sprintf("%-45s %s", key, u)
		if *compare {
			if sp, ok := db.Get(key); ok {
				if u.Equal(sp.Uops) {
					line += "   [= truth]"
					exact++
				} else {
					line += fmt.Sprintf("   [truth: %s]", sp.Uops)
				}
			}
		}
		fmt.Println(line)
		matches++
	}
	if *compare {
		fmt.Printf("\n%d/%d schemes match the ground truth exactly (port-renaming not applied)\n", exact, matches)
	}
}
