module Rng = Xc_util.Rng

let first_names =
  [| "James"; "Mary"; "Robert"; "Patricia"; "John"; "Jennifer"; "Michael";
     "Linda"; "David"; "Elizabeth"; "William"; "Barbara"; "Richard"; "Susan";
     "Joseph"; "Jessica"; "Thomas"; "Sarah"; "Charles"; "Karen"; "Christopher";
     "Nancy"; "Daniel"; "Lisa"; "Matthew"; "Betty"; "Anthony"; "Margaret";
     "Mark"; "Sandra"; "Donald"; "Ashley"; "Steven"; "Kimberly"; "Paul";
     "Emily"; "Andrew"; "Donna"; "Joshua"; "Michelle"; "Kenneth"; "Carol";
     "Kevin"; "Amanda"; "Brian"; "Dorothy"; "George"; "Melissa"; "Edward";
     "Deborah"; "Ronald"; "Stephanie"; "Timothy"; "Rebecca"; "Jason"; "Sharon";
     "Jeffrey"; "Laura"; "Ryan"; "Cynthia"; "Jacob"; "Kathleen"; "Gary";
     "Amy"; "Nicholas"; "Angela"; "Eric"; "Shirley"; "Jonathan"; "Anna" |]

let last_names =
  [| "Smith"; "Johnson"; "Williams"; "Brown"; "Jones"; "Garcia"; "Miller";
     "Davis"; "Rodriguez"; "Martinez"; "Hernandez"; "Lopez"; "Gonzalez";
     "Wilson"; "Anderson"; "Thomas"; "Taylor"; "Moore"; "Jackson"; "Martin";
     "Lee"; "Perez"; "Thompson"; "White"; "Harris"; "Sanchez"; "Clark";
     "Ramirez"; "Lewis"; "Robinson"; "Walker"; "Young"; "Allen"; "King";
     "Wright"; "Scott"; "Torres"; "Nguyen"; "Hill"; "Flores"; "Green";
     "Adams"; "Nelson"; "Baker"; "Hall"; "Rivera"; "Campbell"; "Mitchell";
     "Carter"; "Roberts"; "Gomez"; "Phillips"; "Evans"; "Turner"; "Diaz";
     "Parker"; "Cruz"; "Edwards"; "Collins"; "Reyes"; "Stewart"; "Morris";
     "Morales"; "Murphy"; "Cook"; "Rogers"; "Gutierrez"; "Ortiz"; "Morgan" |]

let cities =
  [| "Athens"; "Berlin"; "Cairo"; "Dakar"; "Edinburgh"; "Florence"; "Geneva";
     "Helsinki"; "Istanbul"; "Jakarta"; "Kyoto"; "Lisbon"; "Madrid"; "Nairobi";
     "Oslo"; "Prague"; "Quito"; "Rome"; "Seattle"; "Tokyo"; "Utrecht";
     "Vienna"; "Warsaw"; "Xiamen"; "Yokohama"; "Zurich"; "Amsterdam";
     "Boston"; "Chicago"; "Denver"; "Eugene"; "Fresno" |]

let countries =
  [| "Argentina"; "Brazil"; "Canada"; "Denmark"; "Egypt"; "France"; "Germany";
     "Hungary"; "India"; "Japan"; "Kenya"; "Luxembourg"; "Mexico"; "Norway";
     "Oman"; "Portugal"; "Qatar"; "Russia"; "Spain"; "Turkey"; "Ukraine";
     "Vietnam"; "Yemen"; "Zambia"; "United States"; "United Kingdom" |]

let streets =
  [| "Maple Street"; "Oak Avenue"; "Cedar Lane"; "Pine Road"; "Elm Drive";
     "Birch Boulevard"; "Walnut Way"; "Chestnut Court"; "Willow Walk";
     "Aspen Alley"; "Juniper Junction"; "Magnolia Mews"; "Poplar Place";
     "Sycamore Square"; "Hazel Heights"; "Laurel Loop" |]

let genres =
  [| "Drama"; "Comedy"; "Thriller"; "Horror"; "Romance"; "Documentary";
     "Action"; "Adventure"; "Animation"; "Crime"; "Fantasy"; "Mystery";
     "Science Fiction"; "Western"; "Musical"; "War" |]

let payment_kinds =
  [| "Creditcard"; "Money order"; "Personal Check"; "Cash" |]

let education_levels =
  [| "High School"; "College"; "Graduate School"; "Other" |]

let title_words =
  [| "Shadow"; "River"; "Night"; "Golden"; "Lost"; "Last"; "Silent"; "Broken";
     "Crimson"; "Winter"; "Summer"; "Iron"; "Glass"; "Stone"; "Fire"; "Storm";
     "Empire"; "Garden"; "Voyage"; "Return"; "Secret"; "Hidden"; "Eternal";
     "Midnight"; "Morning"; "Distant"; "Forgotten"; "Ancient"; "Burning";
     "Frozen"; "Sacred"; "Savage"; "Gentle"; "Wild"; "Quiet"; "Electric";
     "Paper"; "Velvet"; "Scarlet"; "Emerald"; "Hollow"; "Rising"; "Falling";
     "Dream"; "Mirror"; "Echo"; "Harvest"; "Kingdom"; "Station"; "Harbor" |]

let auction_types = [| "Regular"; "Featured"; "Dutch" |]

let person_name rng =
  Printf.sprintf "%s %s" (Rng.pick rng first_names) (Rng.pick rng last_names)

let email rng =
  Printf.sprintf "%s.%s@%s.example"
    (String.lowercase_ascii (Rng.pick rng first_names))
    (String.lowercase_ascii (Rng.pick rng last_names))
    (String.lowercase_ascii (Rng.pick rng cities))

let phone rng =
  Printf.sprintf "+%d (%03d) %07d" (1 + Rng.int rng 99) (Rng.int rng 1000)
    (Rng.int rng 10_000_000)

let time_string rng =
  Printf.sprintf "%02d:%02d:%02d" (Rng.int rng 24) (Rng.int rng 60) (Rng.int rng 60)

let credit_card rng =
  Printf.sprintf "%04d %04d %04d %04d" (Rng.int rng 10_000) (Rng.int rng 10_000)
    (Rng.int rng 10_000) (Rng.int rng 10_000)

let url rng =
  Printf.sprintf "https://www.%s-%s.example/"
    (String.lowercase_ascii (Rng.pick rng title_words))
    (String.lowercase_ascii (Rng.pick rng cities))
