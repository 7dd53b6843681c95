package apk_test

import (
	"encoding/xml"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/appgen"
	"flowdroid/internal/droidbench"
	"flowdroid/internal/framework"
	"flowdroid/internal/insecurebank"
)

// The oracle: the reflection-driven xml.Unmarshal decoder ParseManifest
// replaced, kept here to pin the token loop to what it read.

type xmlManifest struct {
	XMLName     xml.Name       `xml:"manifest"`
	Package     string         `xml:"package,attr"`
	Application xmlApplication `xml:"application"`
}

type xmlApplication struct {
	Attrs      []xml.Attr     `xml:",any,attr"`
	Activities []xmlComponent `xml:"activity"`
	Services   []xmlComponent `xml:"service"`
	Receivers  []xmlComponent `xml:"receiver"`
	Providers  []xmlComponent `xml:"provider"`
}

type xmlComponent struct {
	Attrs         []xml.Attr        `xml:",any,attr"`
	IntentFilters []xmlIntentFilter `xml:"intent-filter"`
}

type xmlIntentFilter struct {
	Actions []xmlAction `xml:"action"`
}

type xmlAction struct {
	Attrs []xml.Attr `xml:",any,attr"`
}

func oracleAttr(attrs []xml.Attr, local string) (string, bool) {
	for _, a := range attrs {
		if a.Name.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

func unmarshalManifest(data []byte) (*apk.Manifest, error) {
	var xm xmlManifest
	if err := xml.Unmarshal(data, &xm); err != nil {
		return nil, fmt.Errorf("apk: parsing manifest: %w", err)
	}
	if xm.Package == "" {
		return nil, fmt.Errorf("apk: manifest has no package attribute")
	}
	m := &apk.Manifest{Package: xm.Package}
	if name, ok := oracleAttr(xm.Application.Attrs, "name"); ok && name != "" {
		if strings.HasPrefix(name, ".") {
			name = xm.Package + name
		}
		m.Application = name
	}
	add := func(kind framework.ComponentKind, comps []xmlComponent) error {
		for _, xc := range comps {
			name, ok := oracleAttr(xc.Attrs, "name")
			if !ok || name == "" {
				return fmt.Errorf("apk: %s component without android:name", kind)
			}
			if strings.HasPrefix(name, ".") {
				name = xm.Package + name
			}
			c := &apk.Component{Kind: kind, Class: name, Enabled: true}
			if v, ok := oracleAttr(xc.Attrs, "enabled"); ok {
				c.Enabled = v != "false"
			}
			if v, ok := oracleAttr(xc.Attrs, "exported"); ok {
				c.Exported = v == "true"
			}
			for _, f := range xc.IntentFilters {
				for _, act := range f.Actions {
					if v, ok := oracleAttr(act.Attrs, "name"); ok {
						c.IntentActions = append(c.IntentActions, v)
						if v == "android.intent.action.MAIN" {
							c.Main = true
						}
					}
				}
			}
			m.Components = append(m.Components, c)
		}
		return nil
	}
	for _, k := range []struct {
		kind  framework.ComponentKind
		comps []xmlComponent
	}{
		{framework.Activity, xm.Application.Activities},
		{framework.Service, xm.Application.Services},
		{framework.Receiver, xm.Application.Receivers},
		{framework.Provider, xm.Application.Providers},
	} {
		if err := add(k.kind, k.comps); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// TestManifestMatchesUnmarshal: ParseManifest returns the manifest the
// xml.Unmarshal oracle returns, or the same error, on every shipped
// manifest and on hand-made edge cases.
func TestManifestMatchesUnmarshal(t *testing.T) {
	cases := map[string]string{
		"nested unknown elements": `<?xml version="1.0"?>
<!-- comment -->
<manifest xmlns:android="http://schemas.android.com/apk/res/android" package="p.q">
  <uses-permission android:name="android.permission.SEND_SMS"/>
  <application android:name=".App" android:label="x">
    <meta-data android:name="k" android:value="v"/>
    <activity android:name=".Main" android:exported="true">
      <meta-data android:name="m"><activity android:name=".Nested"/></meta-data>
      <intent-filter>
        <action android:name="android.intent.action.MAIN"/>
        <category android:name="android.intent.category.LAUNCHER"/>
        <action android:name="x.Y"><action android:name="inner"/></action>
      </intent-filter>
      <action android:name="not.in.a.filter"/>
      <activity android:name=".NotAComponent"/>
    </activity>
    <service android:name="a.b.Svc" android:enabled="false"><intent-filter><action/></intent-filter></service>
    <receiver android:name=".Rcv"><intent-filter><data/><action android:name="R"/></intent-filter><intent-filter><action name="S"/></intent-filter></receiver>
    <provider android:name=".Prov"/>
    <activity android:name=".Second" android:enabled="true" android:exported="false"/>
    <unknown><service android:name=".Hidden"/></unknown>
  </application>
</manifest>
trailing text after the root is never read <<<`,
		"component outside application": `<manifest package="p"><activity android:name=".Outside"/>
<application><activity android:name=".Inside"/></application><service android:name=".Out2"/></manifest>`,
		"two applications": `<manifest package="p"><application android:label="l"><activity android:name=".A"/></application>
<application android:name=".App2"><service android:name=".S"/><activity android:name=".B"/></application></manifest>`,
		"intent-filter outside a component": `<manifest package="p"><intent-filter><activity android:name=".X"/></intent-filter>
<application><intent-filter><action android:name="A"/></intent-filter></application></manifest>`,
		"nested application":           `<manifest package="p"><application><application android:name=".Nested"><activity android:name=".A"/></application></application></manifest>`,
		"empty application name first": `<manifest package="p"><application android:name=""/><application android:name=".App"/></manifest>`,
		"package attribute twice":      `<manifest package="first" x:package="second" xmlns:x="urn:x"><application><activity android:name=".A"/></application></manifest>`,
		"missing package":              `<manifest><application><activity android:name=".A"/></application></manifest>`,
		"empty package":                `<manifest package=""></manifest>`,
		"missing package self-closing": `<manifest/>`,
		"component without name":       `<manifest package="p"><application><activity/></application></manifest>`,
		"empty component name":         `<manifest package="p"><application><service android:name=""/></application></manifest>`,
		"nameless service before activity": `<manifest package="p"><application><service/>
<activity android:label="no name"/></application></manifest>`,
		"wrong root":                `<?xml version="1.0"?><application package="p"/>`,
		"wrong root with namespace": `<a:manifesto xmlns:a="urn:a" package="p"/>`,
		"namespaced root":           `<a:manifest xmlns:a="urn:a" a:package="p"><a:application><a:activity a:name=".A"/></a:application></a:manifest>`,
		"not xml":                   `not xml`,
		"empty document":            ``,
		"only a comment":            `<!-- nothing -->`,
		"unclosed root":             `<manifest package="p"><application>`,
		"mismatched end tag":        `<manifest package="p"><application></activity></manifest>`,
		"bad attribute":             `<manifest package=p></manifest>`,
		"syntax error after a nameless component": `<manifest package="p"><application><activity/><</application></manifest>`,
		"end tag before root":                     `</manifest>`,
	}
	for _, c := range droidbench.Cases() {
		cases["droidbench "+c.Name] = c.Files["AndroidManifest.xml"]
	}
	cases["insecurebank"] = insecurebank.Files["AndroidManifest.xml"]
	for _, p := range []appgen.Profile{appgen.Play, appgen.Malware, appgen.Reflection, appgen.Stress} {
		for _, app := range appgen.GenerateCorpus(p, 20, 1) {
			cases["appgen "+app.Name] = app.Files["AndroidManifest.xml"]
		}
	}
	for name, text := range cases {
		want, wantErr := unmarshalManifest([]byte(text))
		got, gotErr := apk.ParseManifest([]byte(text))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, want %v", name, gotErr, wantErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: manifest\n%s\nwant\n%s", name, render(got), render(want))
		}
	}
}

func render(m *apk.Manifest) string {
	if m == nil {
		return "<nil>"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "package %q application %q\n", m.Package, m.Application)
	for _, c := range m.Components {
		fmt.Fprintf(&sb, "  %+v\n", *c)
	}
	return sb.String()
}
