// Command corpusgen expands seeded corpus plans into scenario corpora and
// replays them against the fadingd service (see docs/corpus.md).
//
// Subcommands:
//
//	corpusgen gen -plan plans/corpus-smoke.json -out scenarios/corpus-smoke
//	    expand the plan and write the corpus directory
//	corpusgen verify -plan plans/corpus-smoke.json -dir scenarios/corpus-smoke
//	    regenerate from the plan and byte-compare against the directory
//	corpusgen replay -plan plans/corpus-full.json [-addr http://host:port] [-token]
//	    run the byte-identity and 400-path gates against a live or in-process
//	    fadingd; -token additionally resumes every spec on a second in-process
//	    server via its session token alone (docs/cluster.md)
//	corpusgen list -plan plans/corpus-full.json
//	    print the manifest entries the plan expands to
//
// Exit codes: 0 success, 1 a gate failed (verification diff, replay
// violation), 2 usage or runtime error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/corpus"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: corpusgen <gen|verify|replay|list> [flags]")
		return 2
	}
	switch args[0] {
	case "gen":
		return runGen(args[1:], stdout, stderr)
	case "verify":
		return runVerify(args[1:], stdout, stderr)
	case "replay":
		return runReplay(args[1:], stdout, stderr)
	case "list":
		return runList(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "corpusgen: unknown subcommand %q (want gen, verify, replay or list)\n", args[0])
		return 2
	}
}

// expand loads the plan and generates its corpus, the shared front half of
// every subcommand.
func expand(fs *flag.FlagSet, plan string, stderr io.Writer) (*corpus.Corpus, int) {
	if plan == "" {
		fmt.Fprintf(stderr, "corpusgen %s: -plan is required\n", fs.Name())
		return nil, 2
	}
	p, err := corpus.LoadPlan(plan)
	if err != nil {
		fmt.Fprintf(stderr, "corpusgen %s: %v\n", fs.Name(), err)
		return nil, 2
	}
	c, err := corpus.Generate(p)
	if err != nil {
		fmt.Fprintf(stderr, "corpusgen %s: %v\n", fs.Name(), err)
		return nil, 2
	}
	return c, 0
}

func runGen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	plan := fs.String("plan", "", "corpus plan file (required)")
	out := fs.String("out", "", "output corpus directory (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "corpusgen gen: -out is required")
		return 2
	}
	c, code := expand(fs, *plan, stderr)
	if code != 0 {
		return code
	}
	if err := c.WriteDir(*out); err != nil {
		fmt.Fprintf(stderr, "corpusgen gen: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "wrote %s: %d valid, %d invalid, %d session templates (plan %s seed %d)\n",
		*out, len(c.Valid), len(c.Invalid), len(c.Sessions), c.Manifest.Plan, c.Manifest.Seed)
	return 0
}

func runVerify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	plan := fs.String("plan", "", "corpus plan file (required)")
	dir := fs.String("dir", "", "corpus directory to verify (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "corpusgen verify: -dir is required")
		return 2
	}
	c, code := expand(fs, *plan, stderr)
	if code != 0 {
		return code
	}
	diffs, err := corpus.VerifyDir(c, *dir)
	if err != nil {
		fmt.Fprintf(stderr, "corpusgen verify: %v\n", err)
		return 2
	}
	if len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(stderr, d)
		}
		fmt.Fprintf(stderr, "FAIL: %s differs from the plan expansion in %d files\n", *dir, len(diffs))
		return 1
	}
	fmt.Fprintf(stdout, "OK: %s is byte-identical to the expansion of %s (%d files)\n",
		*dir, *plan, len(c.Files()))
	return 0
}

func runReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	plan := fs.String("plan", "", "corpus plan file (required)")
	addr := fs.String("addr", "", "live fadingd base URL (default: an in-process server)")
	tokenResume := fs.Bool("token", false, "also resume every spec on a second server via its session token only (in-process; see docs/cluster.md)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c, code := expand(fs, *plan, stderr)
	if code != 0 {
		return code
	}
	report, err := corpus.Replay(c, corpus.ReplayOptions{Addr: *addr, TokenResume: *tokenResume})
	if err != nil {
		fmt.Fprintf(stderr, "corpusgen replay: %v\n", err)
		return 2
	}
	tokenNote := ""
	if *tokenResume {
		tokenNote = fmt.Sprintf(", %d token resumes", report.TokenResumes)
	}
	fmt.Fprintf(stdout, "replayed %d specs against %d servers: %d byte-identity passes, %d invalid specs rejected%s\n",
		report.Replayed, report.Servers, report.Passes, report.Rejected, tokenNote)
	if !report.OK() {
		for _, f := range report.Failures {
			fmt.Fprintln(stderr, f)
		}
		fmt.Fprintf(stderr, "FAIL: %d replay violations\n", len(report.Failures))
		return 1
	}
	return 0
}

func runList(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	plan := fs.String("plan", "", "corpus plan file (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c, code := expand(fs, *plan, stderr)
	if code != 0 {
		return code
	}
	for _, e := range c.Manifest.Entries {
		switch e.Kind {
		case corpus.KindScenario:
			replay := ""
			if e.Replayable {
				replay = " replayable"
			}
			fmt.Fprintf(stdout, "%-12s %s mode=%s method=%s fading=%s%s\n",
				e.Kind, e.Name, e.Mode, e.Method, e.Fading, replay)
		default:
			fmt.Fprintf(stdout, "%-12s %s class=%s\n", e.Kind, e.Name, e.Class)
		}
	}
	return 0
}
