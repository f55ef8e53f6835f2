package bls

// isogeny.go holds the degree-11 isogeny E' → E from RFC 9380 Appendix E.2:
// the rational map (x', y') ↦ (x_num(x')/x_den(x'), y'·y_num(x')/y_den(x'))
// that carries SSWU outputs on the 11-isogenous curve back onto BLS12-381's
// E: y² = x³ + 4. The map is a group homomorphism, evaluated here with
// Horner's rule on polynomials homogenised in the SSWU fraction, so the
// image comes out in Jacobian coordinates without an inversion. The affine
// evaluation (two divisions) is the test oracle in hash2curve_test.go.
//
// The coefficient tables are self-checking: an incorrect coefficient sends
// the image of almost every E' point off E, which the hash2curve tests
// assert against random inputs in addition to the RFC appendix vectors.

// isoFe decodes an isogeny coefficient, left-padding to the field's 96 hex
// digits so the tables below can be written exactly as the RFC prints them.
func isoFe(h string) fe {
	for len(h) < 2*fpSize {
		h = "0" + h
	}
	return mustFe(h)
}

// Isogeny polynomials, little-endian by degree. x_den and y_den are monic
// (their leading coefficient is 1), stored explicitly so Horner evaluation
// needs no special casing. x_num has degree 11, x_den 10, y_num and y_den
// 15.
var iso11XNum, iso11XDen, iso11YNum, iso11YDen []fe

func init() {
	initFieldConstants()
	iso11XNum = []fe{
		isoFe("11a05f2b1e833340b809101dd99815856b303e88a2d7005ff2627b56cdb4e2c85610c2d5f2e62d6eaeac1662734649b7"),
		isoFe("17294ed3e943ab2f0588bab22147a81c7c17e75b2f6a8417f565e33c70d1e86b4838f2a6f318c356e834eef1b3cb83bb"),
		isoFe("d54005db97678ec1d1048c5d10a9a1bce032473295983e56878e501ec68e25c958c3e3d2a09729fe0179f9dac9edcb0"),
		isoFe("1778e7166fcc6db74e0609d307e55412d7f5e4656a8dbf25f1b33289f1b330835336e25ce3107193c5b388641d9b6861"),
		isoFe("e99726a3199f4436642b4b3e4118e5499db995a1257fb3f086eeb65982fac18985a286f301e77c451154ce9ac8895d9"),
		isoFe("1630c3250d7313ff01d1201bf7a74ab5db3cb17dd952799b9ed3ab9097e68f90a0870d2dcae73d19cd13c1c66f652983"),
		isoFe("d6ed6553fe44d296a3726c38ae652bfb11586264f0f8ce19008e218f9c86b2a8da25128c1052ecaddd7f225a139ed84"),
		isoFe("17b81e7701abdbe2e8743884d1117e53356de5ab275b4db1a682c62ef0f2753339b7c8f8c8f475af9ccb5618e3f0c88e"),
		isoFe("80d3cf1f9a78fc47b90b33563be990dc43b756ce79f5574a2c596c928c5d1de4fa295f296b74e956d71986a8497e317"),
		isoFe("169b1f8e1bcfa7c42e0c37515d138f22dd2ecb803a0c5c99676314baf4bb1b7fa3190b2edc0327797f241067be390c9e"),
		isoFe("10321da079ce07e272d8ec09d2565b0dfa7dccdde6787f96d50af36003b14866f69b771f8c285decca67df3f1605fb7b"),
		isoFe("6e08c248e260e70bd1e962381edee3d31d79d7e22c837bc23c0bf1bc24c6b68c24b1b80b64d391fa9c8ba2e8ba2d229"),
	}
	iso11XDen = []fe{
		isoFe("8ca8d548cff19ae18b2e62f4bd3fa6f01d5ef4ba35b48ba9c9588617fc8ac62b558d681be343df8993cf9fa40d21b1c"),
		isoFe("12561a5deb559c4348b4711298e536367041e8ca0cf0800c0126c2588c48bf5713daa8846cb026e9e5c8276ec82b3bff"),
		isoFe("b2962fe57a3225e8137e629bff2991f6f89416f5a718cd1fca64e00b11aceacd6a3d0967c94fedcfcc239ba5cb83e19"),
		isoFe("3425581a58ae2fec83aafef7c40eb545b08243f16b1655154cca8abc28d6fd04976d5243eecf5c4130de8938dc62cd8"),
		isoFe("13a8e162022914a80a6f1d5f43e7a07dffdfc759a12062bb8d6b44e833b306da9bd29ba81f35781d539d395b3532a21e"),
		isoFe("e7355f8e4e667b955390f7f0506c6e9395735e9ce9cad4d0a43bcef24b8982f7400d24bc4228f11c02df9a29f6304a5"),
		isoFe("772caacf16936190f3e0c63e0596721570f5799af53a1894e2e073062aede9cea73b3538f0de06cec2574496ee84a3a"),
		isoFe("14a7ac2a9d64a8b230b3f5b074cf01996e7f63c21bca68a81996e1cdf9822c580fa5b9489d11e2d311f7d99bbdcc5a5e"),
		isoFe("a10ecf6ada54f825e920b3dafc7a3cce07f8d1d7161366b74100da67f39883503826692abba43704776ec3a79a1d641"),
		isoFe("95fc13ab9e92ad4476d6e3eb3a56680f682b4ee96f7d03776df533978f31c1593174e4b4b7865002d6384d168ecdd0a"),
		isoFe("1"), // monic
	}
	iso11YNum = []fe{
		isoFe("90d97c81ba24ee0259d1f094980dcfa11ad138e48a869522b52af6c956543d3cd0c7aee9b3ba3c2be9845719707bb33"),
		isoFe("134996a104ee5811d51036d776fb46831223e96c254f383d0f906343eb67ad34d6c56711962fa8bfe097e75a2e41c696"),
		isoFe("cc786baa966e66f4a384c86a3b49942552e2d658a31ce2c344be4b91400da7d26d521628b00523b8dfe240c72de1f6"),
		isoFe("1f86376e8981c217898751ad8746757d42aa7b90eeb791c09e4a3ec03251cf9de405aba9ec61deca6355c77b0e5f4cb"),
		isoFe("8cc03fdefe0ff135caf4fe2a21529c4195536fbe3ce50b879833fd221351adc2ee7f8dc099040a841b6daecf2e8fedb"),
		isoFe("16603fca40634b6a2211e11db8f0a6a074a7d0d4afadb7bd76505c3d3ad5544e203f6326c95a807299b23ab13633a5f0"),
		isoFe("4ab0b9bcfac1bbcb2c977d027796b3ce75bb8ca2be184cb5231413c4d634f3747a87ac2460f415ec961f8855fe9d6f2"),
		isoFe("987c8d5333ab86fde9926bd2ca6c674170a05bfe3bdd81ffd038da6c26c842642f64550fedfe935a15e4ca31870fb29"),
		isoFe("9fc4018bd96684be88c9e221e4da1bb8f3abd16679dc26c1e8b6e6a1f20cabe69d65201c78607a360370e577bdba587"),
		isoFe("e1bba7a1186bdb5223abde7ada14a23c42a0ca7915af6fe06985e7ed1e4d43b9b3f7055dd4eba6f2bafaaebca731c30"),
		isoFe("19713e47937cd1be0dfd0b8f1d43fb93cd2fcbcb6caf493fd1183e416389e61031bf3a5cce3fbafce813711ad011c132"),
		isoFe("18b46a908f36f6deb918c143fed2edcc523559b8aaf0c2462e6bfe7f911f643249d9cdf41b44d606ce07c8a4d0074d8e"),
		isoFe("b182cac101b9399d155096004f53f447aa7b12a3426b08ec02710e807b4633f06c851c1919211f20d4c04f00b971ef8"),
		isoFe("245a394ad1eca9b72fc00ae7be315dc757b3b080d4c158013e6632d3c40659cc6cf90ad1c232a6442d9d3f5db980133"),
		isoFe("5c129645e44cf1102a159f748c4a3fc5e673d81d7e86568d9ab0f5d396a7ce46ba1049b6579afb7866b1e715475224b"),
		isoFe("15e6be4e990f03ce4ea50b3b42df2eb5cb181d8f84965a3957add4fa95af01b2b665027efec01c7704b456be69c8b604"),
	}
	iso11YDen = []fe{
		isoFe("16112c4c3a9c98b252181140fad0eae9601a6de578980be6eec3232b5be72e7a07f3688ef60c206d01479253b03663c1"),
		isoFe("1962d75c2381201e1a0cbd6c43c348b885c84ff731c4d59ca4a10356f453e01f78a4260763529e3532f6102c2e49a03d"),
		isoFe("58df3306640da276faaae7d6e8eb15778c4855551ae7f310c35a5dd279cd2eca6757cd636f96f891e2538b53dbf67f2"),
		isoFe("16b7d288798e5395f20d23bf89edb4d1d115c5dbddbcd30e123da489e726af41727364f2c28297ada8d26d98445f5416"),
		isoFe("be0e079545f43e4b00cc912f8228ddcc6d19c9f0f69bbb0542eda0fc9dec916a20b15dc0fd2ededda39142311a5001d"),
		isoFe("8d9e5297186db2d9fb266eaac783182b70152c65550d881c5ecd87b6f0f5a6449f38db9dfa9cce202c6477faaf9b7ac"),
		isoFe("166007c08a99db2fc3ba8734ace9824b5eecfdfa8d0cf8ef5dd365bc400a0051d5fa9c01a58b1fb93d1a1399126a775c"),
		isoFe("16a3ef08be3ea7ea03bcddfabba6ff6ee5a4375efa1f4fd7feb34fd206357132b920f5b00801dee460ee415a15812ed9"),
		isoFe("1866c8ed336c61231a1be54fd1d74cc4f9fb0ce4c6af5920abc5750c4bf39b4852cfe2f7bb9248836b233d9d55535d4a"),
		isoFe("167a55cda70a6e1cea820597d94a84903216f763e13d87bb5308592e7ea7d4fbc7385ea3d529b35e346ef48bb8913f55"),
		isoFe("4d2f259eea405bd48f010a01ad2911d9c6dd039bb61a6290e591b36e636a5c871a5c29f4f83060400f8b49cba8f6aa8"),
		isoFe("accbb67481d033ff5852c1e48c50c477f94ff8aefce42d28c0f9a88cea7913516f968986f7ebbea9684b529e2561092"),
		isoFe("ad6b9514c767fe3c3613144b45f1496543346d98adf02267d5ceef9a00d9b8693000763e3b90ac11e99b138573345cc"),
		isoFe("2660400eb2e4f3b628bdd0d53cd76f2bf565b94e72927c1cb748df27942480e420517bd8714cc80d1fadc1326ed06f7"),
		isoFe("e0fa1d816ddc03e6b24255e0d7819c171c40f65e273b853324efcd6356caa205ca2f570f13497804415473a1d634b8f"),
		isoFe("1"), // monic
	}
}

// evalPolyHomog evaluates a little-endian coefficient polynomial of degree
// d at x = X/Z, homogenised: Σ cᵢ·Xⁱ·Z^(d−i) = Z^d·poly(X/Z), by Horner's
// rule with zs[k] = Z^k (k ≤ 15 covers the degree-15 y polynomials).
func evalPolyHomog(coeffs []fe, x *fe, zs *[16]fe) fe {
	d := len(coeffs) - 1
	acc := coeffs[d]
	for i := d - 1; i >= 0; i-- {
		var t fe
		feMul(&acc, &acc, x)
		feMul(&t, &coeffs[i], &zs[d-i])
		feAdd(&acc, &acc, &t)
	}
	return acc
}

// isoMapG1 applies the 11-isogeny to the E' point (x'n/x'd, y') that
// mapToCurveSSWU returns and gives the image as a Jacobian point, with no
// inversion. With the polynomials homogenised in (x'n : x'd),
//
//	xn = x'd^11·x_num(x'),  xd = x'd^11·x_den(x')   (x_den has degree 10,
//	yn = x'd^15·y_num(x'),  yd = x'd^15·y_den(x')    so one more x'd factor)
//
// the image is x = xn/xd, y = y'·yn/yd, which in Jacobian coordinates
// (x = X/Z², y = Y/Z³) is Z = xd·yd, X = xn·xd·yd², Y = y'·yn·yd²·xd³.
// SSWU never outputs a pole of the map (the denominators' roots are not in
// its image) and x'd ≠ 0, so Z ≠ 0.
func isoMapG1(xn0, xd0, y0 *fe) G1 {
	var zs [16]fe
	zs[0] = feR
	zs[1] = *xd0
	for i := 2; i < len(zs); i++ {
		feMul(&zs[i], &zs[i-1], xd0)
	}
	xn := evalPolyHomog(iso11XNum, xn0, &zs)
	xd := evalPolyHomog(iso11XDen, xn0, &zs)
	feMul(&xd, &xd, xd0)
	yn := evalPolyHomog(iso11YNum, xn0, &zs)
	yd := evalPolyHomog(iso11YDen, xn0, &zs)

	var p G1
	var yd2, xd3 fe
	feMul(&p.z, &xd, &yd)
	feSquare(&yd2, &yd)
	feMul(&p.x, &xn, &xd)
	feMul(&p.x, &p.x, &yd2)
	feSquare(&xd3, &xd)
	feMul(&xd3, &xd3, &xd)
	feMul(&p.y, y0, &yn)
	feMul(&p.y, &p.y, &yd2)
	feMul(&p.y, &p.y, &xd3)
	return p
}
