// Command mobius-bench regenerates the paper's evaluation tables and
// figures on the simulated substrate.
//
// Usage:
//
//	mobius-bench                  # run everything, paper order
//	mobius-bench -exp figure5     # one experiment
//	mobius-bench -exp figure9,figure10
//	mobius-bench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mobius/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	svgDir := flag.String("svg", "", "also render figure SVGs into this directory")
	format := flag.String("format", "text", "output format: text or md")
	parallel := flag.Int("parallel", 0, "worker goroutines prewarming the evaluation grid (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.ID)
		}
		return
	}

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "svg dir: %v\n", err)
			os.Exit(1)
		}
		for name, render := range experiments.Charts() {
			path := *svgDir + "/" + name + ".svg"
			svg, err := render()
			if err != nil {
				fmt.Fprintf(os.Stderr, "render %s: %v\n", name, err)
				os.Exit(1)
			}
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}

	var ids []string
	if *exp == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	// Fill the run cache concurrently; tables below assemble serially
	// from it, so the output is byte-identical to a cold serial run.
	if *parallel != 1 {
		experiments.Prewarm(*parallel)
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		table, err := e.Gen()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		if *format == "md" {
			fmt.Println(table.Markdown())
		} else {
			fmt.Println(table.String())
		}
		fmt.Printf("(%s generated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
