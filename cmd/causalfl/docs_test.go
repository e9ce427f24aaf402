package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"causalfl/internal/report"
)

var (
	// codeRe matches fenced code blocks first, then inline code spans.
	codeRe = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	// commandRe matches a causalfl invocation (also ./cmd/causalfl) and
	// captures the subcommand; a word followed by anything but a space, a
	// line end or the span's end is not a command (`causalfl serv[e]`).
	commandRe = regexp.MustCompile("(?m)(?:^|[\\s/$`])causalfl[ \t]+([a-z][a-z-]*)(?:[ \t`]|$)")
	// sectionRe captures the keys of a -section flag.
	sectionRe = regexp.MustCompile(`-section[ =]([a-z0-9,-]+)`)
)

// TestDocsNameLiveCommands scans the docs' code for causalfl subcommands and
// report section keys, and fails on any name the CLI no longer knows.
func TestDocsNameLiveCommands(t *testing.T) {
	root := filepath.Join("..", "..")
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		docs = append(docs, filepath.Join(root, name))
	}
	keys := make(map[string]bool)
	for _, s := range report.Sections() {
		keys[s.Key] = true
	}
	commandsSeen, sectionsSeen := 0, 0
	for _, path := range docs {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range codeRe.FindAllString(string(blob), -1) {
			for _, m := range commandRe.FindAllStringSubmatch(code, -1) {
				commandsSeen++
				if commands[m[1]] == nil {
					t.Errorf("%s: %q names unknown subcommand %q", path, strings.TrimSpace(m[0]), m[1])
				}
			}
			for _, m := range sectionRe.FindAllStringSubmatch(code, -1) {
				for _, key := range strings.Split(m[1], ",") {
					sectionsSeen++
					if !keys[key] {
						t.Errorf("%s: %q names unknown report section %q", path, m[0], key)
					}
				}
			}
		}
	}
	// The scan itself must find something, or a broken pattern passes.
	if commandsSeen == 0 || sectionsSeen == 0 {
		t.Errorf("scan found %d commands and %d section keys, want some of each", commandsSeen, sectionsSeen)
	}
}
