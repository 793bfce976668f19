package dataset

import (
	"fmt"
	"strings"

	"repro/internal/schema"
)

// BuildSpider generates the synthetic Spider corpus: four cross-domain
// databases with *no description files* and questions that ship no
// evidence — the Fig. 1a setting. Values are cleaner than BIRD's (fewer
// cryptic codes), so knowledge atoms are fewer and more guessable, which
// is why the paper's Spider gains (Table V) are smaller than its BIRD
// gains. SEED's Spider pipeline first generates description files
// (§IV-E3); the corpus intentionally leaves Docs empty so that path is
// exercised.
func BuildSpider(seed uint64) *Corpus {
	c := &Corpus{Name: "spider", DBs: make(map[string]*schema.DB)}
	type buildFunc func(seed uint64) (*schema.DB, []Example, []Example, []Example)
	builders := []buildFunc{
		buildConcertSinger,
		buildPets,
		buildWorld,
		buildEmployeeHire,
	}
	for i, build := range builders {
		db, train, dev, test := build(seed + uint64(i)*1000)
		db.Engine.Freeze()
		c.DBs[db.Name] = db
		c.Train = append(c.Train, train...)
		c.Dev = append(c.Dev, dev...)
		c.Test = append(c.Test, test...)
	}
	// Spider provides no evidence with questions.
	for i := range c.Dev {
		c.Dev[i].Evidence = ""
	}
	for i := range c.Test {
		c.Test[i].Evidence = ""
	}
	return c
}

func buildConcertSinger(seed uint64) (*schema.DB, []Example, []Example, []Example) {
	b := newBuilder("concert_singer", seed)
	b.exec(`CREATE TABLE stadium (
		stadium_id INTEGER PRIMARY KEY,
		name TEXT,
		location TEXT,
		capacity INTEGER
	)`)
	b.exec(`CREATE TABLE singer (
		singer_id INTEGER PRIMARY KEY,
		name TEXT,
		country TEXT,
		age INTEGER
	)`)
	b.exec(`CREATE TABLE concert (
		concert_id INTEGER PRIMARY KEY,
		concert_name TEXT,
		theme TEXT,
		stadium_id INTEGER,
		year INTEGER,
		FOREIGN KEY (stadium_id) REFERENCES stadium(stadium_id)
	)`)
	b.exec(`CREATE TABLE singer_in_concert (
		concert_id INTEGER,
		singer_id INTEGER,
		FOREIGN KEY (concert_id) REFERENCES concert(concert_id),
		FOREIGN KEY (singer_id) REFERENCES singer(singer_id)
	)`)

	locations := []string{"East Fife", "Ayr", "Stirling", "Glasgow", "Peterhead"}
	for i := 1; i <= 20; i++ {
		b.execf("INSERT INTO stadium VALUES (%d, 'Stadium %02d', '%s', %d)",
			i, i, locations[b.rng.Intn(len(locations))], 1000+b.rng.Intn(50000))
	}
	countries := []string{"France", "United States", "Netherlands", "Japan", "Brazil"}
	for i := 1; i <= 30; i++ {
		b.execf("INSERT INTO singer VALUES (%d, 'Singer %02d', '%s', %d)",
			i, i, countries[b.rng.Intn(len(countries))], 20+b.rng.Intn(40))
	}
	themes := []string{"Free choice", "Bleeding Love", "Wide Awake", "Happy Tonight"}
	for i := 1; i <= 40; i++ {
		b.execf("INSERT INTO concert VALUES (%d, 'Concert %02d', '%s', %d, %d)",
			i, i, themes[b.rng.Intn(len(themes))], 1+b.rng.Intn(20), 2012+b.rng.Intn(4))
	}
	for i := 1; i <= 40; i++ {
		n := 1 + b.rng.Intn(3)
		for j := 0; j < n; j++ {
			b.execf("INSERT INTO singer_in_concert VALUES (%d, %d)", i, 1+b.rng.Intn(30))
		}
	}

	for _, ctry := range countries {
		b.add(
			fmt.Sprintf("How many singers are from %s?", ctry),
			"SELECT COUNT(*) FROM singer WHERE country = '"+ctry+"'",
		)
		b.add(
			fmt.Sprintf("What is the average age of singers from %s?", ctry),
			"SELECT AVG(age) FROM singer WHERE country = '"+ctry+"'",
		)
	}
	for _, y := range []int{2012, 2013, 2014, 2015} {
		b.add(
			fmt.Sprintf("How many concerts were held in %d?", y),
			fmt.Sprintf("SELECT COUNT(*) FROM concert WHERE year = %d", y),
		)
		b.add(
			fmt.Sprintf("Show the stadium names that hosted a concert in %d.", y),
			fmt.Sprintf("SELECT DISTINCT stadium.name FROM concert JOIN stadium ON {{0}} WHERE concert.year = %d ORDER BY stadium.name", y),
			joinAtom("concert", "stadium_id", "stadium", "stadium_id"),
		)
	}
	for _, cap := range []int{10000, 20000, 30000} {
		b.add(
			fmt.Sprintf("How many stadiums have a capacity over %d?", cap),
			fmt.Sprintf("SELECT COUNT(*) FROM stadium WHERE capacity > %d", cap),
		)
	}
	for _, loc := range locations {
		b.add(
			fmt.Sprintf("List the stadium names located in %s.", loc),
			"SELECT name FROM stadium WHERE {{0}} = '"+loc+"' ORDER BY name",
			columnAtom(loc, "stadium", "location", "name"),
		)
	}
	b.add(
		"Which stadium hosted the most concerts?",
		"SELECT stadium.name FROM concert JOIN stadium ON {{0}} GROUP BY stadium.name ORDER BY COUNT(*) DESC, stadium.name LIMIT 1",
		joinAtom("concert", "stadium_id", "stadium", "stadium_id"),
	)
	for _, th := range themes[:2] {
		b.add(
			fmt.Sprintf("How many singers performed in concerts with the theme %q?", th),
			"SELECT COUNT(DISTINCT singer_in_concert.singer_id) FROM singer_in_concert JOIN concert ON {{1}} WHERE concert.theme = {{0}}",
			synonymAtom(th, "concert", "theme", th, firstWord(th)),
			joinAtom("singer_in_concert", "concert_id", "concert", "concert_id"),
		)
	}

	train, dev, test := b.split3()
	return b.db, train, dev, test
}

func buildPets(seed uint64) (*schema.DB, []Example, []Example, []Example) {
	b := newBuilder("pets_1", seed)
	b.exec(`CREATE TABLE student (
		stuid INTEGER PRIMARY KEY,
		lname TEXT,
		fname TEXT,
		age INTEGER,
		sex TEXT,
		major INTEGER,
		city_code TEXT
	)`)
	b.exec(`CREATE TABLE pets (
		petid INTEGER PRIMARY KEY,
		pettype TEXT,
		pet_age INTEGER,
		weight REAL
	)`)
	b.exec(`CREATE TABLE has_pet (
		stuid INTEGER,
		petid INTEGER,
		FOREIGN KEY (stuid) REFERENCES student(stuid),
		FOREIGN KEY (petid) REFERENCES pets(petid)
	)`)

	cities := []string{"BAL", "WAS", "NYC", "PHL"}
	for i := 1; i <= 40; i++ {
		sex := "M"
		if b.rng.Chance(0.5) {
			sex = "F"
		}
		b.execf("INSERT INTO student VALUES (%d, 'Last%02d', 'First%02d', %d, '%s', %d, '%s')",
			i, i, i, 17+b.rng.Intn(8), sex, 100+b.rng.Intn(5), cities[b.rng.Intn(4)])
	}
	petTypes := []string{"dog", "cat", "bird", "hamster"}
	for i := 1; i <= 35; i++ {
		b.execf("INSERT INTO pets VALUES (%d, '%s', %d, %0.1f)",
			i, petTypes[b.rng.Intn(4)], 1+b.rng.Intn(12), 1+b.rng.Float64()*30)
	}
	for i := 1; i <= 35; i++ {
		b.execf("INSERT INTO has_pet VALUES (%d, %d)", 1+b.rng.Intn(40), i)
	}

	for _, pt := range petTypes {
		caps := strings.ToUpper(pt[:1]) + pt[1:]
		b.add(
			fmt.Sprintf("How many students have a %s?", pt),
			"SELECT COUNT(DISTINCT has_pet.stuid) FROM has_pet JOIN pets ON {{1}} WHERE pets.pettype = {{0}}",
			synonymAtom(pt, "pets", "pettype", pt, caps),
			joinAtom("has_pet", "petid", "pets", "petid"),
		)
		b.add(
			fmt.Sprintf("What is the average weight of each %s?", pt),
			"SELECT AVG(weight) FROM pets WHERE pettype = {{0}}",
			synonymAtom(pt, "pets", "pettype", pt, caps),
		)
	}
	for _, sx := range []struct{ term, value string }{{"female students", "F"}, {"male students", "M"}} {
		b.add(
			fmt.Sprintf("How many %s own pets?", sx.term),
			"SELECT COUNT(DISTINCT student.stuid) FROM student JOIN has_pet ON {{1}} WHERE student.sex = {{0}}",
			synonymAtom(sx.term, "student", "sex", sx.value, firstWord(sx.term)),
			joinAtom("has_pet", "stuid", "student", "stuid"),
		)
	}
	for _, a := range []int{18, 20, 22} {
		b.add(
			fmt.Sprintf("How many students are older than %d?", a),
			fmt.Sprintf("SELECT COUNT(*) FROM student WHERE age > %d", a),
		)
	}
	for _, city := range cities {
		b.add(
			fmt.Sprintf("List the last names of students from city code %s.", city),
			"SELECT lname FROM student WHERE city_code = '"+city+"' ORDER BY lname",
		)
	}
	b.add(
		"What is the weight of the heaviest pet?",
		"SELECT MAX(weight) FROM pets",
	)
	b.add(
		"Which pet type is most common?",
		"SELECT pettype FROM pets GROUP BY pettype ORDER BY COUNT(*) DESC, pettype LIMIT 1",
	)

	train, dev, test := b.split3()
	return b.db, train, dev, test
}

func buildWorld(seed uint64) (*schema.DB, []Example, []Example, []Example) {
	b := newBuilder("world_1", seed)
	b.exec(`CREATE TABLE country (
		code TEXT PRIMARY KEY,
		name TEXT,
		continent TEXT,
		region TEXT,
		population INTEGER,
		gnp REAL
	)`)
	b.exec(`CREATE TABLE city (
		id INTEGER PRIMARY KEY,
		name TEXT,
		countrycode TEXT,
		district TEXT,
		population INTEGER,
		FOREIGN KEY (countrycode) REFERENCES country(code)
	)`)
	b.exec(`CREATE TABLE countrylanguage (
		countrycode TEXT,
		language TEXT,
		isofficial TEXT,
		percentage REAL,
		FOREIGN KEY (countrycode) REFERENCES country(code)
	)`)

	countries := []struct {
		code, name, continent, region string
	}{
		{"FRA", "France", "Europe", "Western Europe"},
		{"USA", "United States", "North America", "North America"},
		{"JPN", "Japan", "Asia", "Eastern Asia"},
		{"BRA", "Brazil", "South America", "South America"},
		{"NLD", "Netherlands", "Europe", "Western Europe"},
		{"KEN", "Kenya", "Africa", "Eastern Africa"},
		{"IND", "India", "Asia", "Southern Asia"},
		{"AUS", "Australia", "Oceania", "Australia and New Zealand"},
	}
	for _, c := range countries {
		b.execf("INSERT INTO country VALUES ('%s', '%s', '%s', '%s', %d, %0.1f)",
			c.code, c.name, c.continent, c.region,
			1000000+b.rng.Intn(200000000), 1000+b.rng.Float64()*100000)
	}
	for i := 1; i <= 60; i++ {
		c := countries[b.rng.Intn(len(countries))]
		b.execf("INSERT INTO city VALUES (%d, 'City %02d', '%s', 'District %d', %d)",
			i, i, c.code, 1+b.rng.Intn(9), 10000+b.rng.Intn(9000000))
	}
	langs := []string{"English", "French", "Japanese", "Portuguese", "Dutch", "Swahili", "Hindi"}
	for _, c := range countries {
		n := 1 + b.rng.Intn(3)
		for j := 0; j < n; j++ {
			official := "F"
			if j == 0 {
				official = "T"
			}
			b.execf("INSERT INTO countrylanguage VALUES ('%s', '%s', '%s', %0.1f)",
				c.code, langs[b.rng.Intn(len(langs))], official, b.rng.Float64()*100)
		}
	}

	for _, cont := range []string{"Europe", "Asia", "Africa", "North America"} {
		b.add(
			fmt.Sprintf("How many countries are in %s?", cont),
			"SELECT COUNT(*) FROM country WHERE continent = '"+cont+"'",
		)
		b.add(
			fmt.Sprintf("What is the total population of countries in %s?", cont),
			"SELECT SUM(population) FROM country WHERE continent = '"+cont+"'",
		)
	}
	for _, c := range countries[:5] {
		b.add(
			fmt.Sprintf("How many cities does %s have?", c.name),
			"SELECT COUNT(*) FROM city JOIN country ON {{1}} WHERE country.name = {{0}}",
			synonymAtom(c.name, "country", "name", c.name, c.code),
			joinAtom("city", "countrycode", "country", "code"),
		)
	}
	for _, lg := range langs[:4] {
		b.add(
			fmt.Sprintf("How many countries speak %s as an official language?", lg),
			"SELECT COUNT(*) FROM countrylanguage WHERE language = '"+lg+"' AND isofficial = {{0}}",
			valueMapAtom("official language", "countrylanguage", "isofficial", "T", "official"),
		)
	}
	for _, p := range []int{1000000, 5000000} {
		b.add(
			fmt.Sprintf("List the city names with a population over %d.", p),
			fmt.Sprintf("SELECT name FROM city WHERE population > %d ORDER BY name", p),
		)
	}
	b.add(
		"Which country has the largest population?",
		"SELECT name FROM country ORDER BY population DESC LIMIT 1",
	)
	b.add(
		"What is the average GNP of European countries?",
		"SELECT AVG(gnp) FROM country WHERE continent = 'Europe'",
	)

	train, dev, test := b.split3()
	return b.db, train, dev, test
}

func buildEmployeeHire(seed uint64) (*schema.DB, []Example, []Example, []Example) {
	b := newBuilder("employee_hire_evaluation", seed)
	b.exec(`CREATE TABLE employee (
		employee_id INTEGER PRIMARY KEY,
		name TEXT,
		age INTEGER,
		city TEXT
	)`)
	b.exec(`CREATE TABLE shop (
		shop_id INTEGER PRIMARY KEY,
		name TEXT,
		location TEXT,
		number_products INTEGER
	)`)
	b.exec(`CREATE TABLE hiring (
		shop_id INTEGER,
		employee_id INTEGER,
		start_from INTEGER,
		is_full_time TEXT,
		FOREIGN KEY (shop_id) REFERENCES shop(shop_id),
		FOREIGN KEY (employee_id) REFERENCES employee(employee_id)
	)`)
	b.exec(`CREATE TABLE evaluation (
		employee_id INTEGER,
		year_awarded INTEGER,
		bonus REAL,
		FOREIGN KEY (employee_id) REFERENCES employee(employee_id)
	)`)

	cities := []string{"Leeds", "York", "Bristol", "Derby"}
	for i := 1; i <= 30; i++ {
		b.execf("INSERT INTO employee VALUES (%d, 'Employee %02d', %d, '%s')",
			i, i, 22+b.rng.Intn(40), cities[b.rng.Intn(4)])
	}
	for i := 1; i <= 12; i++ {
		b.execf("INSERT INTO shop VALUES (%d, 'Shop %02d', '%s', %d)",
			i, i, cities[b.rng.Intn(4)], 50+b.rng.Intn(300))
	}
	for i := 1; i <= 30; i++ {
		ft := "T"
		if b.rng.Chance(0.3) {
			ft = "F"
		}
		b.execf("INSERT INTO hiring VALUES (%d, %d, %d, '%s')",
			1+b.rng.Intn(12), i, 2005+b.rng.Intn(12), ft)
	}
	for i := 1; i <= 30; i++ {
		if b.rng.Chance(0.6) {
			b.execf("INSERT INTO evaluation VALUES (%d, %d, %0.1f)",
				i, 2010+b.rng.Intn(8), 500+b.rng.Float64()*4500)
		}
	}

	for _, city := range cities {
		b.add(
			fmt.Sprintf("How many employees live in %s?", city),
			"SELECT COUNT(*) FROM employee WHERE city = '"+city+"'",
		)
		b.add(
			fmt.Sprintf("How many shops are located in %s?", city),
			"SELECT COUNT(*) FROM shop WHERE {{0}} = '"+city+"'",
			columnAtom(city, "shop", "location", "name"),
		)
	}
	b.add(
		"How many employees work full time?",
		"SELECT COUNT(*) FROM hiring WHERE is_full_time = {{0}}",
		valueMapAtom("full time", "hiring", "is_full_time", "T", "full"),
	)
	b.add(
		"How many employees work part time?",
		"SELECT COUNT(*) FROM hiring WHERE is_full_time = {{0}}",
		valueMapAtom("part time", "hiring", "is_full_time", "F", "part"),
	)
	for _, y := range []int{2010, 2012, 2014} {
		b.add(
			fmt.Sprintf("How many evaluations were awarded after %d?", y),
			fmt.Sprintf("SELECT COUNT(*) FROM evaluation WHERE year_awarded > %d", y),
		)
	}
	for _, n := range []int{100, 200} {
		b.add(
			fmt.Sprintf("List the shop names carrying more than %d products.", n),
			fmt.Sprintf("SELECT name FROM shop WHERE number_products > %d ORDER BY name", n),
		)
	}
	b.add(
		"Which shop hired the most employees?",
		"SELECT shop.name FROM hiring JOIN shop ON {{0}} GROUP BY shop.name ORDER BY COUNT(*) DESC, shop.name LIMIT 1",
		joinAtom("hiring", "shop_id", "shop", "shop_id"),
	)
	b.add(
		"What is the highest bonus ever awarded?",
		"SELECT MAX(bonus) FROM evaluation",
	)

	train, dev, test := b.split3()
	return b.db, train, dev, test
}
