package main

import (
	"os"
	"path"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// readmeCommands returns the argument lists of every coreset command in the
// code blocks of a Markdown document: `coreset …`, `./coreset …`,
// `/tmp/coreset …` and `go run ./cmd/coreset …`, with `\` continuations
// joined and shell separators, redirections and comments cut off.
func readmeCommands(doc string) [][]string {
	var cmds [][]string
	inBlock, line := false, ""
	for _, raw := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(raw), "```") {
			inBlock, line = !inBlock, ""
			continue
		}
		if !inBlock {
			continue
		}
		if s, cont := strings.CutSuffix(strings.TrimRight(raw, " "), `\`); cont {
			line += s + " "
			continue
		}
		line, raw = "", line+raw
		raw, _, _ = strings.Cut(raw, " #")
		var cmd []string
		redirected := false // a redirection ends the arguments
		for _, tok := range append(strings.Fields(raw), ";") {
			switch {
			case tok == "|" || tok == "||" || tok == "&" || tok == "&&" || tok == ";":
				if len(cmd) >= 3 && cmd[0] == "go" && cmd[1] == "run" && strings.HasSuffix(cmd[2], "cmd/coreset") {
					cmds = append(cmds, cmd[3:])
				} else if len(cmd) > 0 && path.Base(cmd[0]) == "coreset" {
					cmds = append(cmds, cmd[1:])
				}
				cmd, redirected = nil, false
			case strings.HasPrefix(tok, ">") || strings.HasPrefix(tok, "<") || strings.HasPrefix(tok, "2>"):
				redirected = true
			case !redirected:
				cmd = append(cmd, tok)
			}
		}
	}
	return cmds
}

// TestREADMEFlagsExist: every flag a README command passes is in its
// subcommand's -h usage, so a documented command line cannot outlive the
// flag it names.
func TestREADMEFlagsExist(t *testing.T) {
	doc, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	cmds := readmeCommands(string(doc))
	if len(cmds) < 10 {
		t.Fatalf("found only %d coreset commands in README.md: %q", len(cmds), cmds)
	}
	usage := make(map[string]string)
	flagTok := regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	for _, args := range cmds {
		sub := "run"
		if len(args) > 0 && slices.Contains(subcommands, args[0]) {
			sub, args = args[0], args[1:]
		}
		if _, ok := usage[sub]; !ok {
			_, usage[sub], _ = runCLI(t, sub, "-h")
		}
		for _, a := range args {
			m := flagTok.FindStringSubmatch(a)
			if m == nil {
				continue
			}
			if !regexp.MustCompile(`(?m)^  -` + regexp.QuoteMeta(m[1]) + `(\s|$)`).MatchString(usage[sub]) {
				t.Errorf("README: coreset %s %s: -%s is not a flag of %q", sub, strings.Join(args, " "), m[1], sub)
			}
		}
	}
}
