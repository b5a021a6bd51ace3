package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/token"
)

func TestLoadKeyring(t *testing.T) {
	const keys = "k1:000102030405060708090a0b0c0d0e0f"
	want, err := token.ParseKeyring(keys)
	if err != nil {
		t.Fatal(err)
	}
	kr, err := loadKeyring(keys, "")
	if err != nil || !reflect.DeepEqual(kr, want) {
		t.Fatalf("loadKeyring(flag): kr=%v err=%v", kr, err)
	}
	// From file, with surrounding whitespace.
	path := filepath.Join(t.TempDir(), "keys")
	if err := os.WriteFile(path, []byte(" \n"+keys+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	kr, err = loadKeyring("", path)
	if err != nil || !reflect.DeepEqual(kr, want) {
		t.Fatalf("loadKeyring(file): kr=%v err=%v", kr, err)
	}
	if kr, err = loadKeyring("", ""); err != nil || kr != nil {
		t.Fatalf("loadKeyring(empty) must disable tokens: kr=%v err=%v", kr, err)
	}
	if _, err = loadKeyring(keys, path); err == nil {
		t.Fatal("both flags set must be rejected")
	}
	if _, err = loadKeyring("", filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing key file must be rejected")
	}
	if _, err = loadKeyring("garbage", ""); err == nil {
		t.Fatal("bad keyring must be rejected")
	}
	// A named key file that holds no key must not silently disable tokens.
	for name, body := range map[string]string{"empty": "", "blank": " \n\t\n"} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		if kr, err = loadKeyring("", path); err == nil {
			t.Fatalf("%s key file accepted: kr=%v", name, kr)
		}
	}
}
